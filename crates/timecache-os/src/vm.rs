//! Virtual memory with fork and copy-on-write sharing.
//!
//! The paper motivates TimeCache with exactly this deployment: once reuse
//! channels are closed, operators can use fork/COW and page deduplication
//! freely ("unix-style process fork operations or Docker-style
//! containers") without handing attackers a shared-memory channel. This
//! module supplies the substrate: per-process page tables, `fork` with
//! copy-on-write, shared (deduplicated) mappings, and a [`VmProgram`]
//! wrapper that translates a program's virtual addresses — physical
//! sharing and COW divergence then flow naturally into the simulated
//! cache hierarchy.
//!
//! COW faults are modelled mechanically: the faulting store is preceded by
//! the page copy's actual line-by-line loads and stores, so the fault's
//! cache and timing footprint is simulated rather than waved at.

use crate::program::{DataKind, Observation, Op, Program};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use timecache_sim::Addr;

/// Page size (4 KiB, 64 cache lines).
pub const PAGE_SIZE: u64 = 4096;

/// Cache line size assumed for COW copy traffic.
const LINE: u64 = 64;

/// An address-space identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(u32);

/// One page mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mapping {
    /// Physical page base address.
    ppage: Addr,
    /// Copy-on-write: shared until first store.
    cow: bool,
}

/// One process's page table.
#[derive(Debug, Clone, Default)]
struct AddressSpace {
    /// Virtual page base -> mapping.
    pages: HashMap<Addr, Mapping>,
}

/// The system-wide VM state: all address spaces plus the physical
/// allocator. Shared by every [`VmProgram`] via [`Vm`].
#[derive(Debug)]
struct VmState {
    spaces: Vec<AddressSpace>,
    /// Physical allocation cursor (fresh pages are never recycled; the
    /// simulator only cares about distinctness).
    next_ppage: Addr,
    /// Count of COW faults taken (diagnostics).
    cow_faults: u64,
}

/// Shared handle to the VM manager.
///
/// # Examples
///
/// ```
/// use timecache_os::vm::{Vm, PAGE_SIZE};
///
/// let vm = Vm::new();
/// let parent = vm.new_space();
/// vm.map_anon(parent, 0x1000, PAGE_SIZE);
/// let child = vm.fork(parent);
///
/// // Reads share physical memory...
/// let (p, _) = vm.translate(parent, 0x1234, false);
/// let (c, _) = vm.translate(child, 0x1234, false);
/// assert_eq!(p, c);
///
/// // ...until a write copies the page.
/// let (c_w, copied) = vm.translate(child, 0x1234, true);
/// assert!(copied.is_some());
/// assert_ne!(c_w, p);
/// ```
#[derive(Debug, Clone)]
pub struct Vm {
    state: Rc<RefCell<VmState>>,
}

impl Default for Vm {
    fn default() -> Self {
        Vm::new()
    }
}

impl Vm {
    /// Creates an empty VM manager. Physical pages are carved from a
    /// private arena high in the address space so they never collide with
    /// the conventional layout regions.
    pub fn new() -> Self {
        Vm {
            state: Rc::new(RefCell::new(VmState {
                spaces: Vec::new(),
                next_ppage: 0x0900_0000_0000,
                cow_faults: 0,
            })),
        }
    }

    /// Creates a fresh, empty address space.
    pub fn new_space(&self) -> VmId {
        let mut st = self.state.borrow_mut();
        st.spaces.push(AddressSpace::default());
        VmId(st.spaces.len() as u32 - 1)
    }

    /// Maps `bytes` of fresh anonymous memory at `vbase` (private,
    /// writable).
    ///
    /// # Panics
    ///
    /// Panics if `space` is unknown, `vbase` is not page-aligned, or the
    /// range overlaps an existing mapping.
    pub fn map_anon(&self, space: VmId, vbase: Addr, bytes: u64) {
        assert_eq!(vbase % PAGE_SIZE, 0, "vbase must be page-aligned");
        let mut st = self.state.borrow_mut();
        for i in 0..bytes.div_ceil(PAGE_SIZE) {
            let ppage = st.next_ppage;
            st.next_ppage += PAGE_SIZE;
            let prev = st.spaces[space.0 as usize]
                .pages
                .insert(vbase + i * PAGE_SIZE, Mapping { ppage, cow: false });
            assert!(prev.is_none(), "overlapping mapping at {vbase:#x}");
        }
    }

    /// Maps `bytes` of *shared* physical memory (a deduplicated page range
    /// or shared library) at `vbase`, backed by `pbase`. Multiple spaces
    /// mapping the same `pbase` share the lines — stores do NOT copy
    /// (like `MAP_SHARED`).
    ///
    /// # Panics
    ///
    /// Panics on misalignment or overlap.
    pub fn map_shared(&self, space: VmId, vbase: Addr, pbase: Addr, bytes: u64) {
        assert_eq!(vbase % PAGE_SIZE, 0, "vbase must be page-aligned");
        assert_eq!(pbase % PAGE_SIZE, 0, "pbase must be page-aligned");
        let mut st = self.state.borrow_mut();
        for i in 0..bytes.div_ceil(PAGE_SIZE) {
            let prev = st.spaces[space.0 as usize].pages.insert(
                vbase + i * PAGE_SIZE,
                Mapping {
                    ppage: pbase + i * PAGE_SIZE,
                    cow: false,
                },
            );
            assert!(prev.is_none(), "overlapping mapping at {vbase:#x}");
        }
    }

    /// Forks `parent`: the child receives the same mappings, with every
    /// anonymous page downgraded to copy-on-write in **both** spaces
    /// (exactly `fork(2)` semantics; shared mappings stay shared).
    ///
    /// # Panics
    ///
    /// Panics if `parent` is unknown.
    pub fn fork(&self, parent: VmId) -> VmId {
        let mut st = self.state.borrow_mut();
        let mut parent_pages = st.spaces[parent.0 as usize].pages.clone();
        for m in parent_pages.values_mut() {
            m.cow = true;
        }
        st.spaces[parent.0 as usize].pages = parent_pages.clone();
        st.spaces.push(AddressSpace {
            pages: parent_pages,
        });
        VmId(st.spaces.len() as u32 - 1)
    }

    /// Translates a virtual address. For a store to a COW page, allocates
    /// a private copy, repoints the mapping, and returns
    /// `Some((old_ppage, new_ppage))` so the caller can simulate the copy
    /// traffic.
    ///
    /// # Panics
    ///
    /// Panics on an unmapped address (the simulated process would fault).
    pub fn translate(
        &self,
        space: VmId,
        vaddr: Addr,
        is_write: bool,
    ) -> (Addr, Option<(Addr, Addr)>) {
        let mut st = self.state.borrow_mut();
        let vpage = vaddr & !(PAGE_SIZE - 1);
        let offset = vaddr & (PAGE_SIZE - 1);
        let mapping = *st.spaces[space.0 as usize]
            .pages
            .get(&vpage)
            .unwrap_or_else(|| panic!("segfault: {vaddr:#x} unmapped in {space:?}"));
        if is_write && mapping.cow {
            let new_ppage = st.next_ppage;
            st.next_ppage += PAGE_SIZE;
            st.cow_faults += 1;
            st.spaces[space.0 as usize].pages.insert(
                vpage,
                Mapping {
                    ppage: new_ppage,
                    cow: false,
                },
            );
            return (new_ppage + offset, Some((mapping.ppage, new_ppage)));
        }
        (mapping.ppage + offset, None)
    }

    /// Total COW faults taken so far.
    pub fn cow_faults(&self) -> u64 {
        self.state.borrow().cow_faults
    }
}

/// Wraps a program so its memory accesses are translated through an
/// address space; COW faults inject the page copy's line traffic before
/// the faulting store.
///
/// Instruction fetches are translated too (text is demand-shared after a
/// fork, exactly the reuse surface the paper defends).
pub struct VmProgram<P> {
    inner: P,
    vm: Vm,
    space: VmId,
    /// Pending injected ops (COW copy traffic, then the faulting store).
    pending: Vec<Op>,
}

impl<P: Program> VmProgram<P> {
    /// Wraps `inner` to run inside `space`.
    pub fn new(inner: P, vm: Vm, space: VmId) -> Self {
        VmProgram {
            inner,
            vm,
            space,
            pending: Vec::new(),
        }
    }

    fn translate_op(&mut self, op: Op) -> Op {
        match op {
            Op::Instr { pc, data } => {
                let (pc, _) = self.vm.translate(self.space, pc, false);
                let data = data.map(|(kind, vaddr)| {
                    let is_write = kind == DataKind::Store;
                    let (paddr, cow) = self.vm.translate(self.space, vaddr, is_write);
                    if let Some((old, new)) = cow {
                        // Inject the page copy: read each old line, write
                        // each new line, then retry the store. Pushed in
                        // reverse (pending pops from the back).
                        self.pending.push(Op::Instr {
                            pc,
                            data: Some((kind, paddr)),
                        });
                        for i in (0..PAGE_SIZE / LINE).rev() {
                            self.pending.push(Op::Instr {
                                pc,
                                data: Some((DataKind::Store, new + i * LINE)),
                            });
                            self.pending.push(Op::Instr {
                                pc,
                                data: Some((DataKind::Load, old + i * LINE)),
                            });
                        }
                    }
                    (kind, paddr)
                });
                match data {
                    Some((kind, paddr)) if !self.pending.is_empty() => {
                        // The faulting store was queued behind the copy;
                        // issue the first copy op instead.
                        let _ = (kind, paddr);
                        self.pending.pop().expect("copy ops queued")
                    }
                    _ => Op::Instr { pc, data },
                }
            }
            Op::Flush { pc, target } => {
                let (pc, _) = self.vm.translate(self.space, pc, false);
                let (target, _) = self.vm.translate(self.space, target, false);
                Op::Flush { pc, target }
            }
            Op::Yield { pc } => {
                let (pc, _) = self.vm.translate(self.space, pc, false);
                Op::Yield { pc }
            }
            Op::Done => Op::Done,
        }
    }
}

impl<P: Program> Program for VmProgram<P> {
    fn next_op(&mut self) -> Op {
        if let Some(op) = self.pending.pop() {
            return op;
        }
        let op = self.inner.next_op();
        self.translate_op(op)
    }

    fn observe(&mut self, obs: Observation) {
        // Injected copy ops are invisible to the wrapped program; only
        // forward observations when nothing synthetic is in flight.
        if self.pending.is_empty() {
            self.inner.observe(obs);
        }
    }

    fn observes(&self) -> bool {
        self.inner.observes()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl<P: fmt::Debug> fmt::Debug for VmProgram<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VmProgram")
            .field("inner", &self.inner)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::Spin;

    #[test]
    fn anon_pages_are_private_per_space() {
        let vm = Vm::new();
        let a = vm.new_space();
        let b = vm.new_space();
        vm.map_anon(a, 0x1000, PAGE_SIZE);
        vm.map_anon(b, 0x1000, PAGE_SIZE);
        let (pa, _) = vm.translate(a, 0x1000, false);
        let (pb, _) = vm.translate(b, 0x1000, false);
        assert_ne!(pa, pb);
    }

    #[test]
    fn shared_mappings_alias_physical_lines() {
        let vm = Vm::new();
        let a = vm.new_space();
        let b = vm.new_space();
        vm.map_shared(a, 0x2000, 0x0800_0000_0000, PAGE_SIZE);
        vm.map_shared(b, 0x9000, 0x0800_0000_0000, PAGE_SIZE);
        let (pa, _) = vm.translate(a, 0x2040, false);
        let (pb, _) = vm.translate(b, 0x9040, false);
        assert_eq!(pa, pb, "dedup: same physical line via different vaddrs");
    }

    #[test]
    fn fork_shares_reads_and_copies_on_write() {
        let vm = Vm::new();
        let parent = vm.new_space();
        vm.map_anon(parent, 0x4000, 2 * PAGE_SIZE);
        let child = vm.fork(parent);

        let (p, _) = vm.translate(parent, 0x4008, false);
        let (c, _) = vm.translate(child, 0x4008, false);
        assert_eq!(p, c);

        // Child writes: page copied, addresses diverge; parent keeps the
        // original physical page.
        let (cw, fault) = vm.translate(child, 0x4008, true);
        assert!(fault.is_some());
        assert_ne!(cw, p);
        let (p2, _) = vm.translate(parent, 0x4008, false);
        assert_eq!(p2, p);
        // Second write: no further fault.
        let (cw2, fault2) = vm.translate(child, 0x4008, true);
        assert_eq!(cw2, cw);
        assert!(fault2.is_none());
        assert_eq!(vm.cow_faults(), 1);

        // The untouched second page stays shared.
        let (pp, _) = vm.translate(parent, 0x5010, false);
        let (cp, _) = vm.translate(child, 0x5010, false);
        assert_eq!(pp, cp);
    }

    #[test]
    fn parent_write_after_fork_also_copies() {
        let vm = Vm::new();
        let parent = vm.new_space();
        vm.map_anon(parent, 0x4000, PAGE_SIZE);
        let child = vm.fork(parent);
        let (shared, _) = vm.translate(child, 0x4000, false);
        let (pw, fault) = vm.translate(parent, 0x4000, true);
        assert!(fault.is_some());
        assert_ne!(pw, shared);
        // Child still reads the original page.
        let (c2, _) = vm.translate(child, 0x4000, false);
        assert_eq!(c2, shared);
    }

    #[test]
    #[should_panic(expected = "segfault")]
    fn unmapped_access_faults() {
        let vm = Vm::new();
        let a = vm.new_space();
        vm.translate(a, 0xDEAD_0000, false);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn double_map_rejected() {
        let vm = Vm::new();
        let a = vm.new_space();
        vm.map_anon(a, 0x1000, PAGE_SIZE);
        vm.map_anon(a, 0x1000, PAGE_SIZE);
    }

    /// A two-op program: store to a COW page, then done.
    #[derive(Debug)]
    struct OneStore {
        done: bool,
    }

    impl Program for OneStore {
        fn next_op(&mut self) -> Op {
            if self.done {
                return Op::Done;
            }
            self.done = true;
            Op::Instr {
                pc: 0x1000,
                data: Some((DataKind::Store, 0x4010)),
            }
        }
    }

    #[test]
    fn vm_program_injects_cow_copy_traffic() {
        let vm = Vm::new();
        let parent = vm.new_space();
        vm.map_anon(parent, 0x1000, PAGE_SIZE); // text
        vm.map_anon(parent, 0x4000, PAGE_SIZE); // data
        let child = vm.fork(parent);

        let mut prog = VmProgram::new(OneStore { done: false }, vm.clone(), child);
        let mut ops = Vec::new();
        loop {
            let op = prog.next_op();
            if op == Op::Done {
                break;
            }
            ops.push(op);
        }
        // 64 loads + 64 stores of copy traffic + the retried store.
        assert_eq!(ops.len(), 129, "{}", ops.len());
        let stores = ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    Op::Instr {
                        data: Some((DataKind::Store, _)),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(stores, 65);
        // The final op is the faulting store, landed on the *new* page.
        let last = ops.last().unwrap();
        if let Op::Instr {
            data: Some((DataKind::Store, addr)),
            ..
        } = last
        {
            let (expected, _) = vm.translate(child, 0x4010, false);
            assert_eq!(*addr, expected);
        } else {
            panic!("last op not a store: {last:?}");
        }
        assert_eq!(vm.cow_faults(), 1);
    }

    #[test]
    fn vm_program_translates_everything_else() {
        let vm = Vm::new();
        let s = vm.new_space();
        vm.map_anon(s, 0x5500_0000, PAGE_SIZE); // Spin's code page
        let mut prog = VmProgram::new(Spin::new(2), vm.clone(), s);
        let op = prog.next_op();
        if let Op::Instr { pc, .. } = op {
            let (expected, _) = vm.translate(s, 0x5500_0000, false);
            assert_eq!(pc, expected);
        } else {
            panic!("unexpected {op:?}");
        }
    }
}
