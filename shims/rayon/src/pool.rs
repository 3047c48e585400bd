//! The chunk-claiming worker pool behind the parallel iterators.
//!
//! One global pool serves the whole process. A parallel operation splits
//! its work into a fixed number of chunks (see [`chunk_count`] — the split
//! depends only on the item count, never on the thread count), publishes a
//! single *op* holding an atomic chunk cursor, and then **participates**:
//! the submitting thread claims and runs chunks exactly like the workers
//! do. Idle workers steal chunks from published ops via the same cursor.
//! This self-scheduling scheme gives work-stealing's load-balancing
//! behaviour with a single atomic per claim, and it makes nested
//! parallelism deadlock-free by construction — an op's submitter never
//! waits on work that only a blocked thread could run, because the
//! submitter itself drains the cursor before waiting for stragglers.
//!
//! Pool size defaults to [`std::thread::available_parallelism`], overridden
//! by the `KCENTER_THREADS` environment variable (read once, at first
//! use; anything but an integer ≥ 1 panics), and per-thread by
//! [`with_threads`]. Worker threads are spawned
//! lazily, on the first op that could use them, and then persist for the
//! process lifetime (they park on a condvar while idle).
//!
//! Panics inside a chunk are caught on the executing thread, the first
//! payload is stashed on the op, and the submitting thread re-raises it
//! after every chunk has finished — so a panicking worker never leaves the
//! op's other chunks orphaned and the pool stays usable afterwards.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard cap on pool concurrency (threads per op, workers overall).
pub const MAX_THREADS: usize = 64;

/// Fixed upper bound on chunks per op. 64 chunks keep claim overhead
/// negligible while giving an 8–16 thread pool enough slack to balance
/// uneven chunk costs.
pub const MAX_CHUNKS: usize = 64;

/// Number of chunks an op over `n_items` items splits into: `min(n, 64)`
/// (at least 1, so empty inputs still run their — empty — chunk body once
/// where callers expect it). A function of the item count **only**: the
/// same input splits identically at every thread count ≥ 2, which is what
/// makes chunked reductions reproducible across pool sizes.
pub fn chunk_count(n_items: usize) -> usize {
    n_items.clamp(1, MAX_CHUNKS)
}

/// Half-open range of item indices belonging to chunk `c` of `n_chunks`
/// over `n_items` items: the standard even split `[c·n/k, (c+1)·n/k)`.
pub fn chunk_range(n_items: usize, n_chunks: usize, c: usize) -> Range<usize> {
    (c * n_items / n_chunks)..((c + 1) * n_items / n_chunks)
}

/// Parses the raw `KCENTER_THREADS` value (`None` when unset, which
/// defers to the machine's available parallelism). Surrounding whitespace
/// is ignored; anything but an integer ≥ 1 is an error naming the
/// accepted values.
fn parse_threads_env(raw: Option<&str>) -> Result<Option<usize>, String> {
    match raw {
        None => Ok(None),
        Some(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!(
                "invalid KCENTER_THREADS {s:?} (expected an integer ≥ 1)"
            )),
        },
    }
}

/// The process-default thread count: `KCENTER_THREADS` if set, else the
/// machine's available parallelism; capped at [`MAX_THREADS`]. Read once
/// and cached.
///
/// # Panics
/// On a `KCENTER_THREADS` value that is not an integer ≥ 1 (`eight`,
/// `0`, `-1`, …), so a typo fails loudly instead of silently running at
/// the default width.
pub fn default_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        parse_threads_env(std::env::var("KCENTER_THREADS").ok().as_deref())
            .unwrap_or_else(|e| panic!("{e}"))
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .min(MAX_THREADS)
    })
}

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The thread count parallel ops submitted by the current thread will use:
/// the innermost [`with_threads`] override, else [`default_threads`].
pub fn current_num_threads() -> usize {
    OVERRIDE.with(|c| c.get()).unwrap_or_else(default_threads)
}

/// Runs `f` with parallel ops submitted by this thread using exactly `n`
/// threads (1 = strictly sequential, bitwise-identical to the pre-pool
/// shim). The override is thread-local and restored on exit, panic
/// included. Shim extension (real rayon configures pools via
/// `ThreadPoolBuilder`); used by the determinism tests and the
/// 1-vs-N-thread benchmarks.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "thread count must be at least 1");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|c| c.replace(Some(n.min(MAX_THREADS))));
    let _restore = Restore(prev);
    f()
}

/// One published parallel operation: a chunk body plus claim/completion
/// state. The `'static` on `job` is a lie told by [`run_chunks`] — the
/// submitting thread guarantees the borrow outlives every dereference by
/// blocking until `remaining` hits zero before returning.
struct Op {
    job: &'static (dyn Fn(usize) + Sync),
    n_chunks: usize,
    /// Next chunk index to claim; claims past `n_chunks` mean "exhausted".
    next: AtomicUsize,
    /// Worker slots still available (the submitter is not counted). Caps
    /// how many pool workers may join, so [`with_threads`] produces real
    /// 2-thread runs even on a wide pool.
    slots: AtomicIsize,
    /// Chunks not yet finished; guarded so `done` can be signalled exactly
    /// when the last chunk completes.
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic payload raised by any chunk.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

struct Shared {
    queue: Mutex<VecDeque<Arc<Op>>>,
    ready: Condvar,
    /// Workers spawned so far (monotonic; workers never exit).
    workers: Mutex<usize>,
}

fn shared() -> &'static Arc<Shared> {
    static SHARED: OnceLock<Arc<Shared>> = OnceLock::new();
    SHARED.get_or_init(|| {
        Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            workers: Mutex::new(0),
        })
    })
}

fn ensure_workers(shared: &Arc<Shared>, want: usize) {
    let want = want.min(MAX_THREADS - 1);
    let mut count = shared.workers.lock().unwrap();
    while *count < want {
        let s = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name(format!("kcenter-pool-{}", *count))
            .spawn(move || worker_loop(s));
        if spawned.is_err() {
            // Degrade gracefully: the submitter always completes its own
            // ops, workers just stop growing.
            break;
        }
        *count += 1;
    }
}

/// Claims and runs chunks of `op` until its cursor is exhausted. Returns
/// only when no unclaimed chunk remains (claimed chunks may still be
/// running on other threads).
fn run_op_chunks(op: &Op) {
    loop {
        let c = op.next.fetch_add(1, Ordering::Relaxed);
        if c >= op.n_chunks {
            return;
        }
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (op.job)(c))) {
            let mut slot = op.panic.lock().unwrap();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut rem = op.remaining.lock().unwrap();
        *rem -= 1;
        if *rem == 0 {
            op.done.notify_all();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let op = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                let found = q.iter().find(|o| {
                    o.next.load(Ordering::Relaxed) < o.n_chunks
                        && o.slots.load(Ordering::Relaxed) > 0
                });
                if let Some(op) = found {
                    break Arc::clone(op);
                }
                q = shared.ready.wait(q).unwrap();
            }
        };
        // Acquire a worker slot; raced-out acquisitions are handed back.
        if op.slots.fetch_sub(1, Ordering::AcqRel) <= 0 {
            op.slots.fetch_add(1, Ordering::AcqRel);
            continue;
        }
        run_op_chunks(&op);
        op.slots.fetch_add(1, Ordering::AcqRel);
        // The op's cursor is exhausted; drop it from the queue if the
        // submitter has not already done so.
        let mut q = shared.queue.lock().unwrap();
        if let Some(pos) = q.iter().position(|o| Arc::ptr_eq(o, &op)) {
            q.remove(pos);
        }
    }
}

/// Runs `body(c)` for every chunk `c` in `0..n_chunks`, spreading chunks
/// over up to [`current_num_threads`] threads (the calling thread plus
/// pool workers). Blocks until every chunk has finished; re-raises the
/// first chunk panic. With an effective thread count of 1 the chunks run
/// inline, in order, with no pool machinery at all.
pub fn run_chunks(n_chunks: usize, body: &(dyn Fn(usize) + Sync)) {
    if n_chunks == 0 {
        return;
    }
    let threads = current_num_threads().min(n_chunks);
    if threads <= 1 {
        for c in 0..n_chunks {
            body(c);
        }
        return;
    }

    let shared = shared();
    ensure_workers(shared, threads - 1);

    // SAFETY: `job` escapes to worker threads with a forged 'static
    // lifetime. Every dereference happens while executing a claimed chunk,
    // all chunks are accounted for by `remaining`, and this function does
    // not return until `remaining == 0` — so the borrow outlives all uses.
    let job: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
    let op = Arc::new(Op {
        job,
        n_chunks,
        next: AtomicUsize::new(0),
        slots: AtomicIsize::new((threads - 1) as isize),
        remaining: Mutex::new(n_chunks),
        done: Condvar::new(),
        panic: Mutex::new(None),
    });
    {
        shared.queue.lock().unwrap().push_back(Arc::clone(&op));
    }
    shared.ready.notify_all();

    // Participate: the submitter drains the cursor alongside the workers.
    run_op_chunks(&op);

    // Wait for chunks claimed by workers to finish.
    {
        let mut rem = op.remaining.lock().unwrap();
        while *rem > 0 {
            rem = op.done.wait(rem).unwrap();
        }
    }
    {
        let mut q = shared.queue.lock().unwrap();
        if let Some(pos) = q.iter().position(|o| Arc::ptr_eq(o, &op)) {
            q.remove(pos);
        }
    }
    let payload = op.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::parse_threads_env;

    #[test]
    fn thread_env_values_parse_or_fail_loudly() {
        let ok = |raw| parse_threads_env(raw).unwrap();
        assert_eq!(ok(None), None);
        assert_eq!(ok(Some("1")), Some(1));
        assert_eq!(ok(Some("8")), Some(8));
        assert_eq!(ok(Some(" 4\n")), Some(4));
        assert_eq!(ok(Some("1000")), Some(1000), "capping happens later");
        for bad in ["eight", "0", "-1", "", "  ", "2.5", "4 threads", "+"] {
            let err = parse_threads_env(Some(bad)).unwrap_err();
            assert!(err.contains("integer ≥ 1"), "{bad:?}: {err}");
            assert!(err.contains(&format!("{bad:?}")), "{bad:?}: {err}");
        }
    }
}
