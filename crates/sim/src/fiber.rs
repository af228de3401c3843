//! Stackful coroutines ("fibers") — the execution substrate of the step
//! VM.
//!
//! A fiber runs a simulated process body on its own call stack and
//! suspends at every shared-memory step, so admitting one step is a
//! userspace context switch (a handful of instructions), not an OS
//! thread handoff. Two interchangeable implementations sit behind one
//! API:
//!
//! * **`asm` fibers** (x86_64 Linux, the default there): a hand-rolled
//!   SysV context switch that saves the six callee-saved registers and
//!   the stack pointer. One simulated step costs two such switches —
//!   tens of nanoseconds — which is what makes the VM's ≥50× throughput
//!   target over the retired thread-handoff engine possible.
//! * **`parked-thread` fibers** (every other target, Miri, or the
//!   `portable-fibers` feature): each fiber is a real thread that
//!   rendezvouses with the VM over channels. Semantically identical,
//!   much slower; kept so the simulator runs anywhere.
//!
//! The VM resumes a fiber with [`Fiber::resume`]; simulated code
//! suspends itself with the free function [`fiber_yield`], reached
//! through thread-local state so that arbitrarily deep algorithm code
//! (which only sees the `Mem` trait) can yield without threading a
//! handle through every call. Unwinding never crosses the context
//! switch: panics (including the VM's budget-abort payload) are caught
//! at the fiber entry point and handed back to the VM by value.

#[cfg(all(
    target_arch = "x86_64",
    target_os = "linux",
    not(miri),
    not(feature = "portable-fibers")
))]
mod imp {
    //! x86_64 SysV context-switch fibers.
    //!
    //! The switch saves rbp, rbx, r12–r15 and the stack pointer; all
    //! other registers are caller-saved across the `extern "C"` call
    //! boundary, so the compiler preserves them for us. Floating-point
    //! control state is left untouched (neither the VM nor simulated
    //! code modifies mxcsr/x87 modes).

    use std::cell::Cell;
    use std::panic::{self, AssertUnwindSafe};

    /// Fiber stack size. Simulated algorithm bodies are shallow
    /// (register algorithms plus some `format!` machinery), but stacks
    /// are pooled per thread and reused across runs, so being generous
    /// here is nearly free while guarding against overflow (heap
    /// stacks have no guard page).
    const STACK_SIZE: usize = 256 * 1024;

    core::arch::global_asm!(
        // fn sl_sim_fiber_switch(save: *mut *mut u8, restore: *mut u8)
        //
        // Saves the current execution context (callee-saved registers +
        // return address, all on the current stack) into `*save` and
        // resumes the context previously saved at `restore`. Returns —
        // on the *other* stack — when someone switches back.
        ".globl sl_sim_fiber_switch",
        "sl_sim_fiber_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        // First activation of a fiber: the initial fake frame (built in
        // `Fiber::spawn`) "returns" here with r12 = boot data pointer
        // and r13 = the Rust entry function. Align the stack as the ABI
        // requires and call into Rust; the entry never returns.
        ".globl sl_sim_fiber_boot",
        "sl_sim_fiber_boot:",
        "mov rdi, r12",
        "and rsp, -16",
        "call r13",
        "ud2",
    );

    extern "C" {
        fn sl_sim_fiber_switch(save: *mut *mut u8, restore: *mut u8);
        fn sl_sim_fiber_boot();
    }

    thread_local! {
        /// The fiber currently executing on this thread, if any; set by
        /// [`Fiber::resume`] for the duration of the activation so that
        /// [`fiber_yield`] can find its way back to the VM.
        static CURRENT: Cell<*mut FiberInner> = const { Cell::new(std::ptr::null_mut()) };
    }

    struct FiberInner {
        /// Saved VM-side stack pointer while the fiber runs.
        vm_ctx: Cell<*mut u8>,
        /// Saved fiber stack pointer while the fiber is suspended.
        fiber_ctx: Cell<*mut u8>,
        done: Cell<bool>,
        panic: Cell<Option<Box<dyn std::any::Any + Send>>>,
    }

    struct Boot {
        f: Box<dyn FnOnce() + Send + 'static>,
        inner: *mut FiberInner,
    }

    extern "C" fn fiber_main(boot: *mut Boot) -> ! {
        // Runs on the fiber's own stack. Catch everything: unwinding
        // must never cross the assembly switch.
        //
        // SAFETY: `boot` is the pointer `Fiber::spawn` leaked via
        // `Box::into_raw` and parked in the fake frame's r12 slot; the
        // boot trampoline passes it here exactly once, so reclaiming
        // the box is sound and unaliased. The box is moved out of and
        // freed within this statement: this function never returns, so
        // a `Box<Boot>` binding would never be dropped and would leak
        // one allocation per fiber.
        let Boot { f, inner } = *unsafe { Box::from_raw(boot) };
        let result = panic::catch_unwind(AssertUnwindSafe(f));
        // SAFETY: `inner` points into the `FiberInner` owned by the
        // `Fiber` that spawned us, which outlives the fiber's stack
        // (the VM never drops a started fiber before it is done), and
        // the VM side is suspended while this fiber runs, so the
        // access is exclusive.
        unsafe {
            if let Err(payload) = result {
                (*inner).panic.set(Some(payload));
            }
            (*inner).done.set(true);
            // Hand control back to the VM forever. A done fiber is
            // never resumed again (`resume` asserts), so the loop is
            // unreachable after the first switch; it exists to make
            // "fell off the end" impossible.
            loop {
                let mut dead: *mut u8 = std::ptr::null_mut();
                sl_sim_fiber_switch(&mut dead, (*inner).vm_ctx.get());
            }
        }
    }

    /// A suspended or running simulated process body with its own stack.
    pub(crate) struct Fiber {
        inner: Box<FiberInner>,
        stack: StackStorage,
        started_or_done: bool,
    }

    impl Fiber {
        /// Creates a fiber that will run `f` on its first resume.
        pub(crate) fn spawn(_pid: usize, f: Box<dyn FnOnce() + Send + 'static>) -> Fiber {
            let mut stack = take_stack();
            let mut inner = Box::new(FiberInner {
                vm_ctx: Cell::new(std::ptr::null_mut()),
                fiber_ctx: Cell::new(std::ptr::null_mut()),
                done: Cell::new(false),
                panic: Cell::new(None),
            });
            let boot = Box::into_raw(Box::new(Boot {
                f,
                inner: &mut *inner,
            }));
            // Build the initial fake frame at the top of the stack so
            // that the first switch "returns" into `sl_sim_fiber_boot`
            // with r13 = fiber_main and r12 = the boot data.
            //
            // SAFETY: the frame is written strictly inside the owned
            // stack allocation (`top - 7*8 >= base` because STACK_SIZE
            // far exceeds one frame), 8-byte aligned by construction,
            // and matches the layout `sl_sim_fiber_switch` pops.
            unsafe {
                let base = stack.0.as_mut_ptr() as usize;
                let top = (base + STACK_SIZE) & !15;
                let frame = (top - 7 * 8) as *mut usize;
                frame.add(0).write(0); // r15
                frame.add(1).write(0); // r14
                frame
                    .add(2)
                    .write(fiber_main as extern "C" fn(*mut Boot) -> ! as usize); // r13
                frame.add(3).write(boot as usize); // r12
                frame.add(4).write(0); // rbx
                frame.add(5).write(0); // rbp (null: terminates fp chains)
                frame
                    .add(6)
                    .write(sl_sim_fiber_boot as unsafe extern "C" fn() as usize); // ret
                inner.fiber_ctx.set(frame as *mut u8);
            }
            Fiber {
                inner,
                stack,
                started_or_done: false,
            }
        }

        /// Runs the fiber until it yields or finishes. Must not be
        /// called on a finished fiber.
        pub(crate) fn resume(&mut self) {
            assert!(!self.inner.done.get(), "resumed a finished fiber");
            self.started_or_done = true;
            let prev = CURRENT.with(|c| c.replace(&mut *self.inner));
            // SAFETY: `fiber_ctx` holds a context previously saved by
            // the switch (or the spawn-built fake frame) on this
            // fiber's live stack; saving into `vm_ctx` targets a field
            // of the boxed `FiberInner` we exclusively borrow.
            unsafe {
                sl_sim_fiber_switch(self.inner.vm_ctx.as_ptr(), self.inner.fiber_ctx.get());
            }
            CURRENT.with(|c| c.set(prev));
        }

        pub(crate) fn is_done(&self) -> bool {
            self.inner.done.get()
        }

        /// The panic payload the fiber finished with, if any.
        pub(crate) fn take_panic(&mut self) -> Option<Box<dyn std::any::Any + Send>> {
            self.inner.panic.take()
        }
    }

    impl Drop for Fiber {
        fn drop(&mut self) {
            if self.inner.done.get() || !self.started_or_done {
                if !self.started_or_done {
                    // Never ran: the boot data was never consumed.
                    //
                    // SAFETY: an unstarted fiber's `fiber_ctx` still
                    // points at the fake frame `spawn` built, whose
                    // r12 slot (index 3) holds the leaked `Boot`
                    // pointer — unconsumed because only `fiber_main`
                    // consumes it, and it never ran.
                    unsafe {
                        let frame = self.inner.fiber_ctx.get() as *mut usize;
                        drop(Box::from_raw(frame.add(3).read() as *mut Boot));
                    }
                }
                recycle_stack(std::mem::replace(&mut self.stack, StackStorage(Vec::new())));
            }
            // A suspended (started, not done) fiber being dropped leaks
            // its stack frames; the VM always unwinds fibers (abort
            // protocol) before dropping them, so this is unreachable in
            // practice but must not recycle a live stack.
            debug_assert!(
                self.inner.done.get() || !self.started_or_done,
                "dropped a suspended fiber without unwinding it"
            );
        }
    }

    /// Suspends the currently running fiber, returning control to the
    /// VM that resumed it. Returns when the VM resumes the fiber again.
    ///
    /// # Panics
    ///
    /// Panics if called outside a fiber.
    pub(crate) fn fiber_yield() {
        let inner = CURRENT.with(|c| c.get());
        assert!(
            !inner.is_null(),
            "fiber_yield called outside a simulated process"
        );
        // SAFETY: `CURRENT` is non-null only for the duration of a
        // `resume` on this thread, so `inner` points at the live
        // `FiberInner` of the running fiber and `vm_ctx` holds the
        // context `resume` saved just before switching here.
        unsafe {
            sl_sim_fiber_switch((*inner).fiber_ctx.as_ptr(), (*inner).vm_ctx.get());
        }
    }

    /// Heap storage for one fiber stack.
    struct StackStorage(Vec<u64>);

    thread_local! {
        /// Per-thread pool of fiber stacks: exploration builds a fresh
        /// world per replayed schedule, and reusing stacks keeps replay
        /// cost at "reset a pointer", not "mmap 256 KiB".
        static STACK_POOL: std::cell::RefCell<Vec<StackStorage>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    fn take_stack() -> StackStorage {
        STACK_POOL
            .with(|p| p.borrow_mut().pop())
            .unwrap_or_else(|| StackStorage(vec![0u64; STACK_SIZE / 8]))
    }

    fn recycle_stack(s: StackStorage) {
        if !s.0.is_empty() {
            STACK_POOL.with(|p| {
                let mut pool = p.borrow_mut();
                if pool.len() < 32 {
                    pool.push(s);
                }
            });
        }
    }
}

#[cfg(not(all(
    target_arch = "x86_64",
    target_os = "linux",
    not(miri),
    not(feature = "portable-fibers")
)))]
mod imp {
    //! Portable fallback: each fiber is an OS thread that rendezvouses
    //! with the VM over two channels. Far slower than the assembly
    //! switch, but runs on any target and under Miri. The VM/fiber
    //! protocol guarantees mutual exclusion: at most one side runs at a
    //! time, and channel send/recv pairs provide the happens-before
    //! edges for the raw-pointer state the simulated code touches.

    use std::sync::mpsc::{Receiver, SyncSender};

    enum ToFiber {
        Run,
    }
    enum ToVm {
        Yielded,
        Finished(Option<Box<dyn std::any::Any + Send>>),
    }

    thread_local! {
        /// The yield-side channel endpoints of the fiber running on
        /// this thread (fallback fibers run user code on their own
        /// thread, so these are set once at thread start).
        static YIELDER: std::cell::RefCell<Option<(SyncSender<ToVm>, Receiver<ToFiber>)>> =
            const { std::cell::RefCell::new(None) };
    }

    /// A suspended or running simulated process body (thread-backed).
    pub(crate) struct Fiber {
        to_fiber: SyncSender<ToFiber>,
        from_fiber: Receiver<ToVm>,
        handle: Option<std::thread::JoinHandle<()>>,
        done: bool,
        panic: Option<Box<dyn std::any::Any + Send>>,
    }

    impl Fiber {
        pub(crate) fn spawn(pid: usize, f: Box<dyn FnOnce() + Send + 'static>) -> Fiber {
            let (to_fiber, fiber_rx) = std::sync::mpsc::sync_channel::<ToFiber>(1);
            let (to_vm, from_fiber) = std::sync::mpsc::sync_channel::<ToVm>(1);
            let handle = std::thread::Builder::new()
                .name(format!("sim-fiber-{pid}"))
                .spawn(move || {
                    // Wait for the first resume before running a single
                    // instruction of user code.
                    if fiber_rx.recv().is_err() {
                        return;
                    }
                    YIELDER.with(|y| *y.borrow_mut() = Some((to_vm.clone(), fiber_rx)));
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                    YIELDER.with(|y| *y.borrow_mut() = None);
                    let payload = result.err();
                    let _ = to_vm.send(ToVm::Finished(payload));
                })
                .expect("spawn fallback fiber thread");
            Fiber {
                to_fiber,
                from_fiber,
                handle: Some(handle),
                done: false,
                panic: None,
            }
        }

        pub(crate) fn resume(&mut self) {
            assert!(!self.done, "resumed a finished fiber");
            self.to_fiber.send(ToFiber::Run).expect("fiber thread died");
            match self.from_fiber.recv().expect("fiber thread died") {
                ToVm::Yielded => {}
                ToVm::Finished(payload) => {
                    self.done = true;
                    self.panic = payload;
                    if let Some(h) = self.handle.take() {
                        let _ = h.join();
                    }
                }
            }
        }

        pub(crate) fn is_done(&self) -> bool {
            self.done
        }

        pub(crate) fn take_panic(&mut self) -> Option<Box<dyn std::any::Any + Send>> {
            self.panic.take()
        }
    }

    impl Drop for Fiber {
        fn drop(&mut self) {
            // Dropping the struct closes `to_fiber`, which wakes an
            // unstarted thread (it exits without running user code).
            // Finished fibers were already joined in `resume`;
            // suspended fibers must have been unwound by the VM before
            // the drop — if that invariant is broken we detach rather
            // than hang.
            self.handle.take();
        }
    }

    /// Suspends the currently running fiber until the VM resumes it.
    pub(crate) fn fiber_yield() {
        YIELDER.with(|y| {
            let slot = y.borrow();
            let (to_vm, rx) = slot
                .as_ref()
                .expect("fiber_yield called outside a simulated process");
            to_vm.send(ToVm::Yielded).expect("VM side went away");
            rx.recv().expect("VM side went away");
        });
    }
}

pub(crate) use imp::{fiber_yield, Fiber};

/// Per-thread live-heap accounting for the fiber leak regression test:
/// a counting global allocator installed in this crate's unit-test
/// binary. The assembly fibers run on the thread that resumes them, so
/// a thread-local counter stays exact while other tests allocate in
/// parallel on their own threads.
#[cfg(all(
    test,
    target_arch = "x86_64",
    target_os = "linux",
    not(miri),
    not(feature = "portable-fibers")
))]
mod live_heap {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        /// Bytes allocated minus bytes freed on this thread.
        static LIVE: Cell<isize> = const { Cell::new(0) };
    }

    fn add(delta: isize) {
        // `try_with`: allocation during thread teardown must not panic.
        let _ = LIVE.try_with(|c| c.set(c.get() + delta));
    }

    /// Bytes this thread has allocated and not yet freed.
    pub(super) fn live() -> isize {
        LIVE.with(|c| c.get())
    }

    struct Counting;

    // SAFETY: every method forwards to `System` with the caller's
    // arguments unchanged, so `System`'s guarantees carry over; the
    // bookkeeping touches only a const-initialised thread-local `Cell`,
    // which neither allocates nor unwinds.
    unsafe impl GlobalAlloc for Counting {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // SAFETY: forwarded contract, see above.
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                add(layout.size() as isize);
            }
            p
        }

        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s
        // contract, which is `System.alloc_zeroed`'s.
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            // SAFETY: forwarded contract, see above.
            let p = unsafe { System.alloc_zeroed(layout) };
            if !p.is_null() {
                add(layout.size() as isize);
            }
            p
        }

        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract:
        // `ptr` came from this allocator (hence from `System`) with
        // `layout`.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: forwarded contract, see above.
            unsafe { System.dealloc(ptr, layout) };
            add(-(layout.size() as isize));
        }

        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // which is `System.realloc`'s.
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // SAFETY: forwarded contract, see above.
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                add(new_size as isize - layout.size() as isize);
            }
            p
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fiber_runs_to_completion_without_yielding() {
        let hits = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let h = hits.clone();
        let mut f = Fiber::spawn(
            0,
            Box::new(move || {
                h.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }),
        );
        assert!(!f.is_done());
        f.resume();
        assert!(f.is_done());
        assert_eq!(hits.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn yield_suspends_and_resume_continues() {
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let l = log.clone();
        let mut f = Fiber::spawn(
            0,
            Box::new(move || {
                l.lock().unwrap().push(1);
                fiber_yield();
                l.lock().unwrap().push(2);
                fiber_yield();
                l.lock().unwrap().push(3);
            }),
        );
        f.resume();
        assert_eq!(*log.lock().unwrap(), vec![1]);
        assert!(!f.is_done());
        f.resume();
        assert_eq!(*log.lock().unwrap(), vec![1, 2]);
        f.resume();
        assert_eq!(*log.lock().unwrap(), vec![1, 2, 3]);
        assert!(f.is_done());
    }

    #[test]
    fn interleaves_two_fibers() {
        // A Mutex'd String (not Rc): closures must be Send for the
        // thread-backed fallback implementation.
        let out = std::sync::Arc::new(std::sync::Mutex::new(String::new()));
        let mk = |tag: char, out: std::sync::Arc<std::sync::Mutex<String>>| {
            Box::new(move || {
                for _ in 0..3 {
                    out.lock().unwrap().push(tag);
                    fiber_yield();
                }
            }) as Box<dyn FnOnce() + Send>
        };
        let mut a = Fiber::spawn(0, mk('a', out.clone()));
        let mut b = Fiber::spawn(1, mk('b', out.clone()));
        for _ in 0..4 {
            if !a.is_done() {
                a.resume();
            }
            if !b.is_done() {
                b.resume();
            }
        }
        assert!(a.is_done() && b.is_done());
        assert_eq!(*out.lock().unwrap(), "ababab");
    }

    #[test]
    fn panic_payload_is_captured_not_propagated() {
        let mut f = Fiber::spawn(0, Box::new(|| panic!("boom in fiber")));
        f.resume();
        assert!(f.is_done());
        let payload = f.take_panic().expect("payload captured");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom in fiber");
    }

    #[test]
    fn dropping_unstarted_fiber_releases_closure() {
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        struct SetOnDrop(std::sync::Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for SetOnDrop {
            fn drop(&mut self) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let probe = SetOnDrop(flag.clone());
        let f = Fiber::spawn(
            0,
            Box::new(move || {
                let _keep = &probe;
            }),
        );
        drop(f);
        // Allow the fallback's thread a moment to observe the closed
        // channel and drop the closure.
        for _ in 0..100 {
            if flag.load(std::sync::atomic::Ordering::SeqCst) == 1 {
                break;
            }
            std::thread::yield_now();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(flag.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    /// Stand-in for the VM's `SimAbort` payload: unwinding a suspended
    /// fiber through a panic payload must complete cleanly.
    struct FiberAbort;

    /// Regression: every finished fiber frees everything it allocated
    /// — the boot record included, which `fiber_main` (a function that
    /// never returns) once leaked at 24 bytes per fiber, so every
    /// replayed schedule leaked 24 bytes per process. Counts the live
    /// heap exactly, on this thread, across bare fibers and a warm
    /// replay loop.
    #[cfg(all(
        target_arch = "x86_64",
        target_os = "linux",
        not(miri),
        not(feature = "portable-fibers")
    ))]
    #[test]
    fn finished_fibers_and_replays_leave_no_live_heap() {
        use crate::{EventLog, ProcCtx, Program, ReplayPool, RoundRobin, SimWorld};
        use sl_mem::{Mem, Register};
        use sl_spec::types::RegisterSpec;
        use sl_spec::{RegisterOp, RegisterResp};

        fn spawn_and_finish() {
            let mut f = Fiber::spawn(
                0,
                Box::new(|| {
                    fiber_yield();
                }),
            );
            while !f.is_done() {
                f.resume();
            }
        }

        let world = SimWorld::new(2);
        let reg = world.mem().alloc("X", 0u64);
        let mut pool: ReplayPool<RegisterSpec<u64>> = ReplayPool::new(world);
        let replay = |pool: &mut ReplayPool<RegisterSpec<u64>>| {
            let programs = |log: &EventLog<RegisterSpec<u64>>| -> Vec<Program> {
                (0..2u64)
                    .map(|pid| {
                        let (reg, log) = (reg.clone(), log.clone());
                        Box::new(move |ctx: ProcCtx| {
                            ctx.pause();
                            let id = log.invoke(ctx.proc_id(), RegisterOp::Write(pid));
                            reg.write(pid);
                            log.respond(id, RegisterResp::Ack);
                        }) as Program
                    })
                    .collect()
            };
            pool.replay(programs, &mut RoundRobin::new(), 100);
        };

        // Warm-up: the stack pool, the trace and transcript buffers,
        // and the value interner reach their steady state.
        spawn_and_finish();
        replay(&mut pool);

        let before = live_heap::live();
        for _ in 0..1_000 {
            spawn_and_finish();
        }
        assert_eq!(
            live_heap::live() - before,
            0,
            "bytes leaked by 1000 finished fibers"
        );
        let before = live_heap::live();
        for _ in 0..1_000 {
            replay(&mut pool);
        }
        assert_eq!(
            live_heap::live() - before,
            0,
            "bytes leaked by 1000 two-process replays"
        );
    }

    #[test]
    fn abort_payloads_unwind_cleanly() {
        let mut f = Fiber::spawn(
            0,
            Box::new(|| {
                fiber_yield();
                std::panic::panic_any(FiberAbort);
            }),
        );
        f.resume();
        f.resume();
        assert!(f.is_done());
        let payload = f.take_panic().expect("abort payload captured");
        assert!(payload.downcast_ref::<FiberAbort>().is_some());
    }
}
