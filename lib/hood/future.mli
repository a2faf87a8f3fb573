(** Futures over the Hood pool: the user-facing spawn/join of the
    work-stealing runtime.

    [spawn] pushes a task onto the calling worker's deque bottom (the
    thread-creation action of the scheduling loop); [force] joins
    {e work-first}, as a process at a join does in the paper's Figure 3
    loop: it pops its own deque bottom, and if the child is still there
    (nobody stole it) runs it inline, on the current stack, for the
    cost of one deque pop.  Only the join of a stolen child waits: in
    a fiber context (any task body on the pool) it {e suspends} — the
    continuation parks on the child's promise and the worker returns to
    the scheduling loop, so a blocked join never occupies its process.
    Outside a fiber context [force] falls back to the classic helping
    loop (execute local or stolen tasks while polling), mirroring how a
    blocked thread's process pops a new assigned thread in the paper's
    loop.  Suspensions therefore scale with steals, not with spawns. *)

type 'a t
(** A spawned computation: the promise its task resolves, plus the
    task as stored in the deque (so [force] can recognise it there). *)

val spawn : (unit -> 'a) -> 'a t
(** Must be called from inside {!Pool.run} (or a task).  The computation
    may run on any worker.  Exceptions are captured and re-raised at
    {!force}. *)

val force : 'a t -> 'a
(** Wait for the value.  An unstolen child at the bottom of the calling
    worker's deque is popped and run inline; otherwise [force] suspends
    the current fiber while the child is pending (in a fiber context),
    or helps compute it (out of context).  Re-raises the task's
    exception, with its original backtrace, if it failed — whether the
    child ran inline or was stolen. *)

val is_resolved : 'a t -> bool

val both : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** [both f g] = fork-join: spawn [f], run [g] inline, force — the
    canonical two-way spawn of the paper's dag model. *)
