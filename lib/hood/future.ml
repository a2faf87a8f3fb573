(* Futures are promises resolved by a spawned pool task.  [force] joins
   work-first, the way a Figure 3 process reaches a join: it pops its
   own deque bottom, and if that is still the child it spawned, runs the
   child right here, on the current stack — no handler, no continuation
   capture, no resumption task.  Only a child that was stolen (or a
   parent that migrated to another worker since the spawn) is waited
   for, with one of two strategies:

   - In a fiber context (any task body, and the [Pool.run] body — i.e.
     essentially always on the new runtime), a pending [force] suspends
     via [Await]: the continuation parks on the promise and the worker
     returns to the scheduling loop.  The worker never sits on the
     join, and the blocked computation costs no stack.

   - Outside any fiber handler (defensive fallback: code calling
     [force] from a context the pool did not wrap), the classic
     helping loop: run local or stolen tasks while polling.  Helped
     tasks are executed via [Pool.run_task] so each gets its own
     handler — run raw, a helped task's [Await] would be captured by
     an enclosing handler and park the helper itself.  A reclaimed
     child is run the same way there, for the same reason. *)

module Fiber = Abp_fiber.Fiber

(* [task] is the closure stored in the deque (on a Wsm pool, the claim
   wrapper around the body), so [Pool.reclaim] can recognise it. *)
type 'a t = { promise : 'a Fiber.Promise.t; task : unit -> unit }

let spawn f =
  let w = Pool.current () in
  let promise = Fiber.Promise.create () in
  let task =
    Pool.push_task w (fun () ->
        match f () with
        | v -> Fiber.Promise.fulfil promise v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Fiber.Promise.try_fail ~bt promise e))
  in
  { promise; task }

let is_resolved fut = Fiber.Promise.is_resolved fut.promise

let rec help w p =
  match Fiber.Promise.try_await p with
  | Some v -> v
  | None ->
      (* Gate safe point: a worker helping inside [force] must honour
         multiprogramming suspensions just like the outer worker loop
         (it holds no unpublished tasks here). *)
      Pool.checkpoint w;
      (match Pool.try_get_task w with Some task -> Pool.run_task w task | None -> Pool.relax ());
      help w p

(* The body's exception is caught into the promise, so an inline run
   cannot raise; [await] re-raises it with its backtrace.  [await]
   returns at once on a resolved promise and suspends on a pending one:
   the child was stolen, or (only on Wsm, after an inline run) a
   duplicate copy won the claim and runs elsewhere.  [ctx] survives an
   inline run that suspends: the continuation resumes under its
   handler. *)
let force fut =
  let p = fut.promise in
  let ctx = Fiber.in_context () in
  if (not (Fiber.Promise.is_resolved p)) && Pool.reclaim fut.task then
    if ctx then fut.task () else Pool.run_task (Pool.current ()) fut.task;
  if ctx || Fiber.Promise.is_resolved p then Fiber.Promise.await p else help (Pool.current ()) p

let both f g =
  let fa = spawn f in
  let b = g () in
  let a = force fa in
  (a, b)
