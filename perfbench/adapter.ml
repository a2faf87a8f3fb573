(* Every call the benchmark makes into the abp library goes through this
   module, so an API change (for instance collapsing Serve/Shard's submit
   variants into one admission call) only has to be followed here. *)

module A = Abp

let now = A.Clock.now

(* {1 Fork-join: Pool, Future, Par, Algos} *)

let pool_create ~processes = A.Pool.create ~processes ()
let pool_run = A.Pool.run
let pool_shutdown = A.Pool.shutdown
let spawn = A.Future.spawn
let force = A.Future.force
let par_fib = A.Par.fib
let par_nqueens = A.Par.nqueens
let par_sort a = A.Algos.merge_sort ~cmp:Int.compare a
let par_sum ~n f = A.Par.parallel_reduce ~lo:0 ~hi:n ~init:0 ~combine:( + ) f

(* {1 Telemetry counters}

   Sums of the pools' per-worker records, read between phases (advisory
   while workers run, which is all a delta over a phase needs). *)

type counts = {
  pushes : int;
  pops : int;
  steal_attempts : int;
  steals : int;
  cas_failures : int;
  parks : int;
  suspensions : int;
  resumes : int;
  inject_polls : int;
  inject_tasks : int;
}

let counts_of_pools pools =
  let c =
    A.Trace_counters.sum (Array.concat (List.map A.Pool.counters pools))
  in
  {
    pushes = c.pushes;
    pops = c.pops;
    steal_attempts = c.steal_attempts;
    steals = c.successful_steals;
    cas_failures = c.cas_failures_pop_top + c.cas_failures_pop_bottom;
    parks = c.parks;
    suspensions = c.suspensions;
    resumes = c.resumes;
    inject_polls = c.inject_polls;
    inject_tasks = c.inject_tasks;
  }

let counts_diff a b =
  {
    pushes = a.pushes - b.pushes;
    pops = a.pops - b.pops;
    steal_attempts = a.steal_attempts - b.steal_attempts;
    steals = a.steals - b.steals;
    cas_failures = a.cas_failures - b.cas_failures;
    parks = a.parks - b.parks;
    suspensions = a.suspensions - b.suspensions;
    resumes = a.resumes - b.resumes;
    inject_polls = a.inject_polls - b.inject_polls;
    inject_tasks = a.inject_tasks - b.inject_tasks;
  }

let pool_counts p = counts_of_pools [ p ]

(* {1 Serving: Shard (k = 1 is plain Serve), Backend} *)

type service = A.Shard.t
type lane = Bulk | Deadline
type 'a settled = Value of 'a | Failed

let service_create ~shards ~processes = A.Shard.create ~processes ~shards ()

(* The one admission primitive the benchmark uses: non-blocking, so a
   refusal is visible (and counted) instead of stalling the generator. *)
let admit svc ~key ~lane ~deadline_s body =
  let lane = match lane with Bulk -> A.Serve.Bulk | Deadline -> A.Serve.Deadline in
  let deadline = if deadline_s > 0. then Some deadline_s else None in
  Result.to_option (A.Shard.try_submit svc ~key ~lane ?deadline body)

(* The one way the benchmark waits for a ticket: spin briefly, since a
   short request settles within microseconds, then block on the
   service's condition variable. *)
let wait t =
  let rec spin n =
    if n > 0 && Option.is_none (A.Serve.poll t) then begin
      Domain.cpu_relax ();
      spin (n - 1)
    end
  in
  spin 4096;
  match A.Serve.await t with
  | A.Serve.Returned v -> Value v
  | A.Serve.Raised _ | A.Serve.Cancelled _ -> Failed

let service_pools svc =
  List.init (A.Shard.shards svc) (fun i -> A.Serve.pool (A.Shard.serve svc i))

let service_counts svc = counts_of_pools (service_pools svc)

(* Stop admission and run every accepted request to a terminal state;
   returns the requests still suspended afterwards (0 when every awaited
   promise was resolved). *)
let service_drain svc = (A.Shard.drain svc).suspended

let service_shutdown = A.Shard.shutdown
let service_conserved = A.Shard.conserved
let route_counts = A.Shard.route_counts
let cross_polls = A.Shard.cross_polls
let cross_steals = A.Shard.cross_shard_steals
let cross_tasks = A.Shard.cross_stolen_tasks

let inbox_high_water svc =
  List.fold_left max 0
    (List.init (A.Shard.shards svc) (fun i -> A.Serve.inbox_high_water (A.Shard.serve svc i)))

let deadline_misses svc = (A.Shard.lane_stats svc A.Serve.Deadline).lane_misses

type backend = A.Backend.t

let backend_create () = A.Backend.create ()
let backend_call b ~delay_s v = A.Backend.call b ~delay:delay_s v
let backend_stop = A.Backend.stop
let await = A.Fiber.await

(* {1 Single-layer primitives for the ladder} *)

module Deque = A.Atomic_deque
module Injector = A.Injector

let fiber_run_inline body = A.Fiber.run A.Fiber.inline_sched body
let promise_create = A.Fiber.Promise.create
let promise_fulfil = A.Fiber.Promise.fulfil
