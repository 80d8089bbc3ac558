//! The NVM subsystem controller: namespaces + command execution.

use std::collections::BTreeMap;

use crate::nvme::command::{NvmeCommand, Opcode};
use crate::nvme::completion::{NvmeCompletion, Status};
use crate::nvme::namespace::{BarrierPoll, BarrierTicket, Namespace};

/// Identify payload for a namespace (simplified identify structure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdentifyInfo {
    /// Namespace id.
    pub nsid: u32,
    /// Block size in bytes.
    pub block_size: u32,
    /// Capacity in blocks.
    pub capacity_blocks: u64,
}

impl IdentifyInfo {
    /// Serialized length.
    pub const WIRE_LEN: usize = 16;

    /// Serializes to a fixed little-endian layout.
    pub fn to_bytes(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[0..4].copy_from_slice(&self.nsid.to_le_bytes());
        out[4..8].copy_from_slice(&self.block_size.to_le_bytes());
        out[8..16].copy_from_slice(&self.capacity_blocks.to_le_bytes());
        out
    }

    /// Deserializes from [`IdentifyInfo::to_bytes`] output.
    pub fn from_bytes(raw: &[u8]) -> Option<IdentifyInfo> {
        if raw.len() < Self::WIRE_LEN {
            return None;
        }
        Some(IdentifyInfo {
            nsid: u32::from_le_bytes(raw[0..4].try_into().ok()?),
            block_size: u32::from_le_bytes(raw[4..8].try_into().ok()?),
            capacity_blocks: u64::from_le_bytes(raw[8..16].try_into().ok()?),
        })
    }
}

/// A controller owning a set of namespaces.
#[derive(Default)]
pub struct Controller {
    namespaces: BTreeMap<u32, Namespace>,
}

impl Controller {
    /// An empty controller.
    pub fn new() -> Self {
        Controller::default()
    }

    /// Adds a namespace; panics on duplicate ids.
    pub fn add_namespace(&mut self, ns: Namespace) {
        let id = ns.id();
        let prev = self.namespaces.insert(id, ns);
        assert!(prev.is_none(), "duplicate namespace id {id}");
    }

    /// Looks up a namespace.
    pub fn namespace(&self, nsid: u32) -> Option<&Namespace> {
        self.namespaces.get(&nsid)
    }

    /// Returns a controller whose namespaces are shared views over this
    /// controller's storage — the NVMe multi-queue model, where every
    /// I/O queue (here: reactor shard) drives its own controller state
    /// against one storage service. See [`Namespace::share`] for the
    /// exclusivity contract on overlapping writes.
    pub fn share(&mut self) -> Controller {
        let namespaces = self
            .namespaces
            .iter_mut()
            .map(|(&id, ns)| (id, ns.share()))
            .collect();
        Controller { namespaces }
    }

    /// Namespace ids in ascending order.
    pub fn namespace_ids(&self) -> Vec<u32> {
        self.namespaces.keys().copied().collect()
    }

    /// Transfer length of `cmd` against its namespace's block size, or
    /// `None` if the namespace does not exist.
    pub fn transfer_len(&self, cmd: &NvmeCommand) -> Option<usize> {
        self.namespaces
            .get(&cmd.nsid)
            .map(|ns| cmd.transfer_len(ns.block_size()) as usize)
    }

    /// Executes a read directly into `dst` — the zero-copy path, where
    /// `dst` is a leased shared-memory slot and the device's bytes land
    /// in the region with no intermediate `Vec` (§4.4.3). `dst` must be
    /// exactly the command's transfer length.
    pub fn read_into(&self, cmd: &NvmeCommand, dst: &mut [u8]) -> NvmeCompletion {
        debug_assert_eq!(cmd.opcode, Opcode::Read);
        let Some(ns) = self.namespaces.get(&cmd.nsid) else {
            return NvmeCompletion::error(cmd.cid, Status::InvalidNamespace);
        };
        if dst.len() != cmd.transfer_len(ns.block_size()) as usize {
            return NvmeCompletion::error(cmd.cid, Status::InvalidFieldLength);
        }
        let status = ns.read(cmd.slba, cmd.nlb, dst);
        if status.is_ok() {
            NvmeCompletion::ok(cmd.cid)
        } else {
            NvmeCompletion::error(cmd.cid, status)
        }
    }

    /// Executes a command. `write_payload` must be `Some` for writes and
    /// carry exactly the command's transfer length. Returns the completion
    /// and, for reads/identify, the response payload.
    pub fn execute(
        &mut self,
        cmd: &NvmeCommand,
        write_payload: Option<&[u8]>,
    ) -> (NvmeCompletion, Option<Vec<u8>>) {
        match cmd.opcode {
            Opcode::Identify => {
                let Some(ns) = self.namespaces.get(&cmd.nsid) else {
                    return (
                        NvmeCompletion::error(cmd.cid, Status::InvalidNamespace),
                        None,
                    );
                };
                let info = IdentifyInfo {
                    nsid: ns.id(),
                    block_size: ns.block_size(),
                    capacity_blocks: ns.capacity_blocks(),
                };
                (NvmeCompletion::ok(cmd.cid), Some(info.to_bytes().to_vec()))
            }
            Opcode::Flush => {
                let Some(ns) = self.namespaces.get_mut(&cmd.nsid) else {
                    return (
                        NvmeCompletion::error(cmd.cid, Status::InvalidNamespace),
                        None,
                    );
                };
                // Real durability barrier on file-backed stores; RAM
                // disks ack it as a no-op.
                let status = ns.flush();
                (
                    NvmeCompletion {
                        cid: cmd.cid,
                        status,
                    },
                    None,
                )
            }
            Opcode::Read => {
                let Some(ns) = self.namespaces.get(&cmd.nsid) else {
                    return (
                        NvmeCompletion::error(cmd.cid, Status::InvalidNamespace),
                        None,
                    );
                };
                let len = cmd.transfer_len(ns.block_size()) as usize;
                let mut out = vec![0u8; len];
                let comp = self.read_into(cmd, &mut out);
                if comp.status.is_ok() {
                    (comp, Some(out))
                } else {
                    (comp, None)
                }
            }
            Opcode::Write => {
                let Some(ns) = self.namespaces.get_mut(&cmd.nsid) else {
                    return (
                        NvmeCompletion::error(cmd.cid, Status::InvalidNamespace),
                        None,
                    );
                };
                let Some(payload) = write_payload else {
                    return (
                        NvmeCompletion::error(cmd.cid, Status::InvalidFieldLength),
                        None,
                    );
                };
                let status = ns.write(cmd.slba, cmd.nlb, payload, cmd.fua);
                (
                    NvmeCompletion {
                        cid: cmd.cid,
                        status,
                    },
                    None,
                )
            }
            Opcode::Compare => {
                let Some(ns) = self.namespaces.get(&cmd.nsid) else {
                    return (
                        NvmeCompletion::error(cmd.cid, Status::InvalidNamespace),
                        None,
                    );
                };
                let Some(payload) = write_payload else {
                    return (
                        NvmeCompletion::error(cmd.cid, Status::InvalidFieldLength),
                        None,
                    );
                };
                let len = cmd.transfer_len(ns.block_size()) as usize;
                let mut stored = vec![0u8; len];
                let status = ns.read(cmd.slba, cmd.nlb, &mut stored);
                if !status.is_ok() {
                    return (NvmeCompletion::error(cmd.cid, status), None);
                }
                if stored == payload {
                    (NvmeCompletion::ok(cmd.cid), None)
                } else {
                    (NvmeCompletion::error(cmd.cid, Status::CompareFailure), None)
                }
            }
            Opcode::WriteZeroes | Opcode::Dsm => {
                let Some(ns) = self.namespaces.get_mut(&cmd.nsid) else {
                    return (
                        NvmeCompletion::error(cmd.cid, Status::InvalidNamespace),
                        None,
                    );
                };
                let mut status = if cmd.opcode == Opcode::Dsm {
                    ns.trim(cmd.slba, cmd.nlb)
                } else {
                    ns.write_zeroes(cmd.slba, cmd.nlb)
                };
                if status.is_ok() && cmd.fua {
                    status = ns.flush();
                }
                (
                    NvmeCompletion {
                        cid: cmd.cid,
                        status,
                    },
                    None,
                )
            }
        }
    }

    /// Like [`execute`](Controller::execute), but barrier-class
    /// commands (Flush, FUA writes, FUA zero/trim) against a shared
    /// file-backed namespace return a [`BarrierTicket`]: the mutation is
    /// journaled and applied, its `fdatasync` is in flight on the
    /// store's sync worker, and the returned (success) completion must
    /// be parked until [`poll_barrier`](Controller::poll_barrier)
    /// resolves the ticket. Non-barrier commands — and every command on
    /// a RAM or owned namespace — behave exactly like `execute` (ticket
    /// `None`).
    pub fn execute_async(
        &mut self,
        cmd: &NvmeCommand,
        write_payload: Option<&[u8]>,
    ) -> (NvmeCompletion, Option<Vec<u8>>, Option<BarrierTicket>) {
        match cmd.opcode {
            Opcode::Flush => {
                let Some(ns) = self.namespaces.get_mut(&cmd.nsid) else {
                    return (
                        NvmeCompletion::error(cmd.cid, Status::InvalidNamespace),
                        None,
                        None,
                    );
                };
                let (status, ticket) = ns.flush_submit();
                (
                    NvmeCompletion {
                        cid: cmd.cid,
                        status,
                    },
                    None,
                    ticket,
                )
            }
            Opcode::Write => {
                let Some(ns) = self.namespaces.get_mut(&cmd.nsid) else {
                    return (
                        NvmeCompletion::error(cmd.cid, Status::InvalidNamespace),
                        None,
                        None,
                    );
                };
                let Some(payload) = write_payload else {
                    return (
                        NvmeCompletion::error(cmd.cid, Status::InvalidFieldLength),
                        None,
                        None,
                    );
                };
                let (status, ticket) = ns.write_submit(cmd.slba, cmd.nlb, payload, cmd.fua);
                (
                    NvmeCompletion {
                        cid: cmd.cid,
                        status,
                    },
                    None,
                    ticket,
                )
            }
            Opcode::WriteZeroes | Opcode::Dsm => {
                let Some(ns) = self.namespaces.get_mut(&cmd.nsid) else {
                    return (
                        NvmeCompletion::error(cmd.cid, Status::InvalidNamespace),
                        None,
                        None,
                    );
                };
                let mut status = if cmd.opcode == Opcode::Dsm {
                    ns.trim(cmd.slba, cmd.nlb)
                } else {
                    ns.write_zeroes(cmd.slba, cmd.nlb)
                };
                let mut ticket = None;
                if status.is_ok() && cmd.fua {
                    let (s, t) = ns.flush_submit();
                    status = s;
                    ticket = t;
                }
                (
                    NvmeCompletion {
                        cid: cmd.cid,
                        status,
                    },
                    None,
                    ticket,
                )
            }
            _ => {
                let (comp, payload) = self.execute(cmd, write_payload);
                (comp, payload, None)
            }
        }
    }

    /// Resolution state of a parked barrier ticket issued by
    /// [`execute_async`](Controller::execute_async) against `nsid`.
    /// An unknown namespace reports `Durable` so a drain loop over a
    /// reconfigured controller stays total.
    pub fn poll_barrier(&self, nsid: u32, ticket: BarrierTicket) -> BarrierPoll {
        match self.namespaces.get(&nsid) {
            Some(ns) => ns.poll_barrier(ticket),
            None => BarrierPoll::Durable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> Controller {
        let mut c = Controller::new();
        c.add_namespace(Namespace::new(1, 512, 128));
        c.add_namespace(Namespace::new(2, 4096, 64));
        c
    }

    #[test]
    fn write_then_read() {
        let mut c = controller();
        let data = vec![0xabu8; 1024];
        let (comp, _) = c.execute(&NvmeCommand::write(1, 1, 10, 2), Some(&data));
        assert!(comp.status.is_ok());
        let (comp, payload) = c.execute(&NvmeCommand::read(2, 1, 10, 2), None);
        assert!(comp.status.is_ok());
        assert_eq!(payload.unwrap(), data);
    }

    #[test]
    fn identify_roundtrips_geometry() {
        let mut c = controller();
        let cmd = NvmeCommand {
            cid: 9,
            opcode: Opcode::Identify,
            nsid: 2,
            slba: 0,
            nlb: 0,
            fua: false,
            gseq: 0,
        };
        let (comp, payload) = c.execute(&cmd, None);
        assert!(comp.status.is_ok());
        let info = IdentifyInfo::from_bytes(&payload.unwrap()).unwrap();
        assert_eq!(info.nsid, 2);
        assert_eq!(info.block_size, 4096);
        assert_eq!(info.capacity_blocks, 64);
    }

    #[test]
    fn bad_namespace_rejected() {
        let mut c = controller();
        let (comp, _) = c.execute(&NvmeCommand::read(1, 99, 0, 1), None);
        assert_eq!(comp.status, Status::InvalidNamespace);
    }

    #[test]
    fn write_without_payload_rejected() {
        let mut c = controller();
        let (comp, _) = c.execute(&NvmeCommand::write(1, 1, 0, 1), None);
        assert_eq!(comp.status, Status::InvalidFieldLength);
    }

    #[test]
    fn flush_acks() {
        let mut c = controller();
        let (comp, payload) = c.execute(&NvmeCommand::flush(3, 1), None);
        assert!(comp.status.is_ok());
        assert!(payload.is_none());
    }

    #[test]
    fn out_of_range_read_is_error() {
        let mut c = controller();
        let (comp, payload) = c.execute(&NvmeCommand::read(1, 1, 127, 2), None);
        assert_eq!(comp.status, Status::LbaOutOfRange);
        assert!(payload.is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate namespace")]
    fn duplicate_nsid_panics() {
        let mut c = controller();
        c.add_namespace(Namespace::new(1, 512, 1));
    }

    #[test]
    fn compare_matches_and_mismatches() {
        let mut c = controller();
        let data = vec![0x11u8; 512];
        c.execute(&NvmeCommand::write(1, 1, 4, 1), Some(&data));
        let (ok, _) = c.execute(&NvmeCommand::compare(2, 1, 4, 1), Some(&data));
        assert!(ok.status.is_ok());
        let other = vec![0x22u8; 512];
        let (bad, _) = c.execute(&NvmeCommand::compare(3, 1, 4, 1), Some(&other));
        assert_eq!(bad.status, Status::CompareFailure);
        // Compare without payload is a field error.
        let (nf, _) = c.execute(&NvmeCommand::compare(4, 1, 4, 1), None);
        assert_eq!(nf.status, Status::InvalidFieldLength);
    }

    #[test]
    fn write_zeroes_clears_blocks_without_payload() {
        let mut c = controller();
        c.execute(&NvmeCommand::write(1, 1, 8, 2), Some(&vec![0xffu8; 1024]));
        let (comp, _) = c.execute(&NvmeCommand::write_zeroes(2, 1, 8, 2), None);
        assert!(comp.status.is_ok());
        let (rc, data) = c.execute(&NvmeCommand::read(3, 1, 8, 2), None);
        assert!(rc.status.is_ok());
        assert!(data.unwrap().iter().all(|&b| b == 0));
        // Out of range is still caught.
        let (oor, _) = c.execute(&NvmeCommand::write_zeroes(4, 1, 1 << 40, 1), None);
        assert_eq!(oor.status, Status::LbaOutOfRange);
    }

    #[test]
    fn dsm_deallocates_and_reads_back_zero() {
        let mut c = controller();
        c.execute(&NvmeCommand::write(1, 1, 16, 4), Some(&vec![0xeeu8; 2048]));
        let (comp, _) = c.execute(&NvmeCommand::trim(2, 1, 16, 4), None);
        assert!(comp.status.is_ok());
        let (rc, data) = c.execute(&NvmeCommand::read(3, 1, 16, 4), None);
        assert!(rc.status.is_ok());
        assert!(data.unwrap().iter().all(|&b| b == 0));
        let (oor, _) = c.execute(&NvmeCommand::trim(4, 1, 1 << 40, 1), None);
        assert_eq!(oor.status, Status::LbaOutOfRange);
        let (bad_ns, _) = c.execute(&NvmeCommand::trim(5, 99, 0, 1), None);
        assert_eq!(bad_ns.status, Status::InvalidNamespace);
    }

    #[test]
    fn fua_write_and_flush_reach_durable_store() {
        use oaf_store::vfs::MemVfs;
        let mut c = Controller::new();
        let disk =
            oaf_store::FileDisk::create_on(Box::new(MemVfs::new()), 512, 64, 64 * 1024).unwrap();
        c.add_namespace(Namespace::with_file(1, disk));
        let (w, _) = c.execute(
            &NvmeCommand::write_fua(1, 1, 0, 1),
            Some(&vec![0x42u8; 512]),
        );
        assert!(w.status.is_ok());
        let (f, _) = c.execute(&NvmeCommand::flush(2, 1), None);
        assert!(f.status.is_ok());
        let m = c.namespace(1).unwrap().store_metrics().unwrap();
        assert!(m.fsyncs.get() >= 2, "FUA write + flush both sync");
    }

    #[test]
    fn execute_async_tickets_shared_file_barriers() {
        let disk = oaf_store::FileDisk::create_on(
            Box::new(oaf_store::vfs::MemVfs::new()),
            512,
            64,
            64 * 1024,
        )
        .unwrap();
        let mut owner = Controller::new();
        owner.add_namespace(Namespace::with_file(1, disk));
        owner.add_namespace(Namespace::new(2, 512, 16));
        let mut c = owner.share();
        let data = vec![0x42u8; 512];
        let (w, _, ticket) = c.execute_async(&NvmeCommand::write_fua(1, 1, 0, 1), Some(&data));
        assert!(w.status.is_ok());
        let t = ticket.expect("FUA against the shared file namespace tickets");
        while c.poll_barrier(1, t) == BarrierPoll::Pending {
            std::thread::yield_now();
        }
        assert_eq!(c.poll_barrier(1, t), BarrierPoll::Durable);
        // Reads pass through with payload and no ticket.
        let (r, payload, rt) = c.execute_async(&NvmeCommand::read(2, 1, 0, 1), None);
        assert!(r.status.is_ok());
        assert_eq!(payload.unwrap(), data);
        assert!(rt.is_none());
        // Flush tickets; a RAM-backed namespace never does.
        let (f, _, ft) = c.execute_async(&NvmeCommand::flush(3, 1), None);
        assert!(f.status.is_ok());
        let ft = ft.expect("flush tickets");
        while c.poll_barrier(1, ft) == BarrierPoll::Pending {
            std::thread::yield_now();
        }
        let (rw, _, ram_t) = c.execute_async(&NvmeCommand::write_fua(4, 2, 0, 1), Some(&data));
        assert!(rw.status.is_ok());
        assert!(ram_t.is_none(), "RAM namespace must not ticket");
    }

    #[test]
    fn shared_controllers_drive_one_storage() {
        let mut a = controller();
        let mut b = a.share();
        let data = vec![0x5au8; 512];
        let (w, _) = b.execute(&NvmeCommand::write(1, 1, 3, 1), Some(&data));
        assert!(w.status.is_ok());
        let (r, payload) = a.execute(&NvmeCommand::read(2, 1, 3, 1), None);
        assert!(r.status.is_ok());
        assert_eq!(payload.unwrap(), data);
        assert_eq!(b.namespace_ids(), vec![1, 2]);
    }

    #[test]
    fn identify_info_bytes_roundtrip() {
        let info = IdentifyInfo {
            nsid: 7,
            block_size: 4096,
            capacity_blocks: 1 << 30,
        };
        assert_eq!(IdentifyInfo::from_bytes(&info.to_bytes()), Some(info));
        assert_eq!(IdentifyInfo::from_bytes(&[0u8; 3]), None);
    }
}
