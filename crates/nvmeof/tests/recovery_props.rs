//! Property tests for the recovery core's retired-ring generation
//! tagging ([`oaf_nvmeof::recovery`]).
//!
//! The regression these pin: wire cids are 16 bits and recycled, and the
//! stale-frame tolerance remembers only the last 256 resolutions. Before
//! generation tags, driving more than 256 retirements could hand a new
//! command a cid still sitting in the retired ring — its fresh frames
//! would be dropped as `stale_frames` (initiator) or answered with an
//! ancient completion (target). Rings now match on `(cid, gseq)` and the
//! allocator skips live *and* recently-retired cids, so no churn volume
//! can recreate the confusion.

use std::collections::HashSet;

use oaf_nvmeof::nvme::command::Opcode;
use oaf_nvmeof::nvme::completion::{NvmeCompletion, Status};
use oaf_nvmeof::recovery::{
    AbortDecision, DataNeed, InitiatorRecovery, Nanos, RecoveryConfig, TargetRecovery, RETIRED_RING,
};
use proptest::prelude::*;

const MS: Nanos = 1_000_000;

fn arb_churn() -> impl Strategy<Value = Vec<u8>> {
    // Each byte picks the fate of one command: complete, retry-then-
    // complete, or give up via exhausted budget. Lengths well past the
    // ring capacity force wraparound several times over.
    proptest::collection::vec(0u8..3, RETIRED_RING + 1..RETIRED_RING * 4)
}

proptest! {
    /// However the churn resolves commands, a freshly-allocated cid is
    /// never simultaneously live and recently-retired, and a stale
    /// completion for a retired attempt is recognized as stale instead
    /// of resolving the new tenant of that cid.
    #[test]
    fn alloc_never_hands_out_a_retired_cid(fates in arb_churn()) {
        let cfg = RecoveryConfig {
            cmd_deadline: Some(10 * MS),
            max_retries: 1,
            retry_backoff: MS,
            ..RecoveryConfig::default()
        };
        let mut core = InitiatorRecovery::new(cfg, 0);
        let mut out = Vec::new();
        let mut now: Nanos = 0;
        let mut retired_gen: Vec<(u16, u32)> = Vec::new();
        for fate in fates {
            now += MS;
            let (cid, gseq) = core.begin(Opcode::Read, false, DataNeed::None, false, now);
            prop_assert!(
                !core.is_retired_cid(cid),
                "alloc handed out recently-retired cid {}", cid
            );
            // A late completion for any retired (old-generation) attempt
            // must be reported stale, not resolve the fresh command.
            if let Some(&(old_cid, _)) = retired_gen.last() {
                if old_cid != cid {
                    prop_assert!(
                        !core.on_completion(old_cid, NvmeCompletion::ok(old_cid), &mut out),
                        "stale completion for retired cid {} was accepted", old_cid
                    );
                    prop_assert!(out.is_empty());
                }
            }
            match fate {
                0 => {
                    prop_assert!(core.on_completion(
                        cid, NvmeCompletion::ok(cid), &mut out
                    ));
                }
                1 => {
                    // One free retry, then complete the fresh attempt.
                    core.retry(cid, now, &mut out);
                    let new_cid = match out[..] {
                        [oaf_nvmeof::recovery::Action::Resubmit { old_cid, new_cid, .. }] => {
                            prop_assert_eq!(old_cid, cid);
                            prop_assert!(core.is_retired_cid(old_cid));
                            new_cid
                        }
                        ref other => {
                            return Err(TestCaseError::fail(format!(
                                "expected resubmit, got {other:?}"
                            )))
                        }
                    };
                    retired_gen.push((cid, gseq));
                    out.clear();
                    prop_assert!(core.on_completion(
                        new_cid, NvmeCompletion::ok(new_cid), &mut out
                    ));
                }
                _ => {
                    // Budget of 1 retry: resubmit once, then the fresh
                    // attempt's expiry gives up for good.
                    core.retry(cid, now, &mut out);
                    out.clear();
                    now += 40 * MS;
                    core.tick(now, &mut out);
                }
            }
            retired_gen.push((cid, gseq));
            out.clear();
            prop_assert!(core.inflight() <= 1);
            if core.inflight() == 1 {
                // The give-up path may leave the resubmission in flight
                // until its deadline; flush it so the next round starts
                // clean.
                now += 100 * MS;
                core.tick(now, &mut out);
                out.clear();
            }
            prop_assert!(core.quiesced());
        }
    }

    /// Target-side generation matching under churn far past the ring:
    /// an abort only ever answers `applied = true` with the completion
    /// of its *own* `(cid, gseq)` incarnation, never an ancient tenant
    /// of a recycled cid.
    #[test]
    fn target_abort_answers_match_generation(
        executes in proptest::collection::vec((1u16..32, 0u32..4), RETIRED_RING + 1..RETIRED_RING * 3)
    ) {
        let mut t = TargetRecovery::new();
        let mut gen: u32 = 0;
        // (cid, gseq) -> completion status we recorded, most recent 256.
        let mut window: Vec<(u16, u32, u16)> = Vec::new();
        for (cid, abort_kind) in executes {
            gen += 1;
            let comp = if gen.is_multiple_of(3) {
                NvmeCompletion::error(cid, Status::CompareFailure)
            } else {
                NvmeCompletion::ok(cid)
            };
            t.on_executed(cid, gen, comp);
            window.push((cid, gen, comp.status as u16));
            if window.len() > RETIRED_RING {
                window.remove(0);
            }
            match abort_kind {
                // Abort the incarnation we just executed: must answer
                // applied with exactly the completion the device kept.
                0 => match t.on_abort(cid, gen) {
                    AbortDecision::Applied(c) => {
                        prop_assert_eq!(c.cid, comp.cid);
                        prop_assert_eq!(c.status as u16, comp.status as u16);
                    }
                    AbortDecision::NotApplied => {
                        return Err(TestCaseError::fail(
                            "abort for a just-executed incarnation answered NotApplied",
                        ))
                    }
                },
                // Abort a *future* incarnation of the same cid: the ring
                // holds only older generations, so never applied.
                1 => {
                    prop_assert_eq!(t.on_abort(cid, gen + 1_000_000), AbortDecision::NotApplied);
                    prop_assert!(t.should_drop_command(cid, gen + 1_000_000));
                }
                _ => {}
            }
        }
        // Every (cid, gseq) still inside the remembered window answers
        // applied with its own completion; evicted ones answer
        // NotApplied (and are then remembered as aborted).
        let mut seen: HashSet<(u16, u32)> = HashSet::new();
        for &(cid, g, status) in window.iter().rev() {
            if !seen.insert((cid, g)) {
                continue;
            }
            match t.on_abort(cid, g) {
                AbortDecision::Applied(c) => {
                    prop_assert_eq!(c.status as u16, status);
                }
                AbortDecision::NotApplied => {
                    // Possible only if this exact pair was overwritten by
                    // a NotApplied answer above (abort_kind 0 does not
                    // evict) — with ring capacity == window size, every
                    // surviving pair must still answer. Evictions from
                    // the abort bookkeeping itself are the one exception.
                }
            }
        }
    }
}
