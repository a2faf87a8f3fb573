(* Work-first joins: [Future.force] reclaiming its own unstolen child
   from the bottom of the calling worker's deque, racing thieves that
   take children from the top.  On every backend each child body must
   run exactly once, a raising child must re-raise at [force] whether
   it was reclaimed or stolen, nothing may be left suspended, and the
   conservation law must hold at quiescence:
   pushes = pops + stolen_tasks (+ duplicate_steals on Wsm, whose
   discarded duplicate copies are extracted but never run).

   Also the deterministic proxy for the work-first join: at P = 1
   nothing is ever stolen, so the fork-join kernels must finish with
   no suspension at all and every push matched by an own pop.

   Worker counts honour ABP_MP_PROCS (like test_mp) so CI can rerun the
   suite oversubscribed: the reclaim-vs-steal race is most exposed when
   the owner is preempted mid-pop. *)

module Pool = Abp_hood.Pool
module Future = Abp_hood.Future
module Par = Abp_hood.Par
module Algos = Abp_hood.Algos
module Counters = Abp_trace.Counters

exception Boom of int

let procs () =
  match Sys.getenv_opt "ABP_MP_PROCS" with
  | Some s -> ( try max 2 (int_of_string s) with _ -> 2)
  | None -> 2

let backends = Pool.[ ("abp", Abp); ("circular", Circular); ("locked", Locked); ("wsm", Wsm) ]

let rec fib_seq n = if n < 2 then n else fib_seq (n - 1) + fib_seq (n - 2)

(* Bounded wait, so a lost steal fails the test instead of hanging it. *)
let eventually ?(timeout = 10.0) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    pred () || (Unix.gettimeofday () -. t0 <= timeout && (Domain.cpu_relax (); go ()))
  in
  go ()

let check_quiescent ~impl pool =
  let t = Counters.sum (Pool.counters pool) in
  let dup = if impl = Pool.Wsm then t.Counters.duplicate_steals else 0 in
  Alcotest.(check int) "pushes (+ duplicates) = pops + stolen_tasks" (t.Counters.pushes + dup)
    (t.Counters.pops + t.Counters.stolen_tasks);
  Alcotest.(check int) "suspensions = resumes" t.Counters.suspensions t.Counters.resumes;
  Alcotest.(check int) "nothing left suspended" 0 (Pool.suspended pool);
  Alcotest.(check int) "no task exception escaped" 0 t.Counters.task_exceptions

(* One owner forks [n] children per round while P-1 thieves steal, then
   joins them newest-first (each join finds its child at the bottom
   unless it was stolen) or oldest-first (the bottom is some other
   child, which must go back untouched).  Every seventh child raises. *)
let owner_vs_thieves ~impl ~lifo () =
  let n = 400 and rounds = 100 in
  let pool = Pool.create ~processes:(procs ()) ~deque_impl:impl () in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for round = 1 to rounds do
        let sum =
          Pool.run pool (fun () ->
              let futs =
                Array.init n (fun i ->
                    Future.spawn (fun () ->
                        Atomic.incr hits.(i);
                        if i mod 7 = 0 then raise (Boom i);
                        i + fib_seq 8))
              in
              let join acc i =
                match Future.force futs.(i) with
                | v -> acc + v
                | exception Boom j ->
                    if i <> j || i mod 7 <> 0 then Alcotest.failf "child %d raised Boom %d" i j;
                    acc
              in
              let order = List.init n (fun k -> if lifo then n - 1 - k else k) in
              List.fold_left join 0 order)
        in
        let want = ref 0 in
        for i = 0 to n - 1 do
          if i mod 7 <> 0 then want := !want + i + fib_seq 8
        done;
        Alcotest.(check int) "joined sum" !want sum;
        Array.iteri
          (fun i h ->
            if Atomic.get h <> round then
              Alcotest.failf "round %d: child %d ran %d times in total" round i (Atomic.get h))
          hits
      done);
  check_quiescent ~impl pool

(* Nested fork-join under steal pressure: every internal node joins a
   child that may have been reclaimed, stolen, or (on Wsm) duplicated. *)
let nested_fib ~impl () =
  let pool = Pool.create ~processes:(procs ()) ~deque_impl:impl () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for _ = 1 to 5 do
        Alcotest.(check int) "Par.fib 22" (fib_seq 22) (Pool.run pool (fun () -> Par.fib 22))
      done);
  check_quiescent ~impl pool

(* A raising child re-raises at [force] on both join paths: reclaimed
   (P = 1: nothing can steal it) and stolen (the owner waits until a
   thief has started the child before joining). *)
let raise_reclaimed ~impl () =
  let pool = Pool.create ~processes:1 ~deque_impl:impl () in
  let got =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Pool.run pool (fun () ->
            let f = Future.spawn (fun () -> raise (Boom 1)) in
            match Future.force f with (_ : int) -> "returned" | exception Boom 1 -> "boom"))
  in
  Alcotest.(check string) "reclaimed child's exception" "boom" got;
  let t = Counters.sum (Pool.counters pool) in
  Alcotest.(check int) "joined inline: no suspension" 0 t.Counters.suspensions;
  check_quiescent ~impl pool

let raise_stolen ~impl () =
  let pool = Pool.create ~processes:(procs ()) ~deque_impl:impl () in
  let started = Atomic.make false in
  let got =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Pool.run pool (fun () ->
            let f =
              Future.spawn (fun () ->
                  Atomic.set started true;
                  raise (Boom 2))
            in
            if not (eventually (fun () -> Atomic.get started)) then
              Alcotest.fail "no thief took the child";
            match Future.force f with (_ : int) -> "returned" | exception Boom 2 -> "boom"))
  in
  Alcotest.(check string) "stolen child's exception" "boom" got;
  let t = Counters.sum (Pool.counters pool) in
  Alcotest.(check bool) "the child was stolen" true (t.Counters.stolen_tasks >= 1);
  check_quiescent ~impl pool

(* The deterministic proxy: at P = 1 every join reclaims its own child,
   so no kernel suspends and every push is matched by an own pop. *)
let p1_proxy () =
  let pool = Pool.create ~processes:1 () in
  let input = Array.init 20_000 (fun i -> (i * 7919) mod 20_011) in
  let sorted = Array.copy input in
  Array.stable_sort compare sorted;
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let kernel name f =
        let before = Counters.sum (Pool.counters pool) in
        f ();
        let t = Counters.sum (Pool.counters pool) in
        Alcotest.(check int) (name ^ ": suspensions") 0
          (t.Counters.suspensions - before.Counters.suspensions);
        Alcotest.(check int) (name ^ ": pushes = pops")
          (t.Counters.pushes - before.Counters.pushes)
          (t.Counters.pops - before.Counters.pops);
        Alcotest.(check bool) (name ^ ": spawned") true
          (t.Counters.pushes > before.Counters.pushes)
      in
      kernel "fib 20" (fun () ->
          Alcotest.(check int) "fib 20" 6765 (Pool.run pool (fun () -> Par.fib 20)));
      kernel "nqueens 8" (fun () ->
          Alcotest.(check int) "nqueens 8" 92 (Pool.run pool (fun () -> Par.nqueens 8)));
      kernel "merge_sort 20000" (fun () ->
          Alcotest.(check (array int)) "sorted" sorted
            (Pool.run pool (fun () -> Algos.merge_sort ~cmp:compare input))))

(* Every join is a gate safe point.  At P = 1 every join reclaims its
   child and runs it inline, so a kernel never returns to the worker
   loop; with the gate closed for the whole kernel, only the joins can
   stop the worker.  The hook's [wait] returns at once, so each safe
   point counts one stop and the kernel runs on: a join that skipped
   the gate would leave fewer stops than spawns. *)
let gate_at_every_join ~impl () =
  let closed = Atomic.make false and stops = Atomic.make 0 in
  let gate =
    {
      Pool.poll = (fun _ -> not (Atomic.get closed));
      wait =
        (fun _ ->
          Atomic.incr stops;
          0.0);
      on_steal_fail = ignore;
    }
  in
  let pool = Pool.create ~processes:1 ~deque_impl:impl ~gate () in
  let input = Array.init 20_000 (fun i -> (i * 7919) mod 20_011) in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let kernel name f =
        let pushes () = (Counters.sum (Pool.counters pool)).Counters.pushes in
        let p0 = pushes () in
        let s =
          Pool.run pool (fun () ->
              let s0 = Atomic.get stops in
              Atomic.set closed true;
              f ();
              Atomic.set closed false;
              Atomic.get stops - s0)
        in
        let spawned = pushes () - p0 in
        if spawned = 0 || s < spawned then
          Alcotest.failf "%s: %d gate stops for %d spawns" name s spawned
      in
      kernel "fib 20" (fun () -> ignore (Par.fib 20 : int));
      kernel "nqueens 8" (fun () -> ignore (Par.nqueens 8 : int));
      kernel "merge_sort 20000" (fun () ->
          ignore (Algos.merge_sort ~cmp:compare input : int array));
      kernel "spawn chain" (fun () ->
          let rec chain n =
            if n = 0 then 0 else 1 + Future.force (Future.spawn (fun () -> chain (n - 1)))
          in
          Alcotest.(check int) "chain" 200 (chain 200)));
  Alcotest.(check int) "gate stops counted" (Atomic.get stops)
    (Counters.sum (Pool.counters pool)).Counters.gate_suspends

let tests =
  List.concat_map
    (fun (name, impl) ->
      [
        Alcotest.test_case (name ^ ": owner joins newest-first vs thieves") `Quick
          (owner_vs_thieves ~impl ~lifo:true);
        Alcotest.test_case (name ^ ": owner joins oldest-first vs thieves") `Quick
          (owner_vs_thieves ~impl ~lifo:false);
        Alcotest.test_case (name ^ ": nested fib under steals") `Quick (nested_fib ~impl);
        Alcotest.test_case (name ^ ": raising child reclaimed") `Quick (raise_reclaimed ~impl);
        Alcotest.test_case (name ^ ": raising child stolen") `Quick (raise_stolen ~impl);
        Alcotest.test_case (name ^ ": gate safe point at every join") `Quick
          (gate_at_every_join ~impl);
      ])
    backends
  @ [ Alcotest.test_case "P=1 proxy: no suspension, pushes = pops" `Quick p1_proxy ]
