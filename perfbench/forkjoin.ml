(* forkjoin: a closed batch on Pool with P = nproc, the benchmark's own
   domain being worker 0 (no generator thread).  Each iteration runs
   three kernels, each in its own Pool.run: Par.fib (fine-grained spawn
   tree), Par.nqueens (irregular backtracking) and Algos.merge_sort of a
   seeded array (coarse leaves, allocation).  The seed picks the arrays
   and the kernel order; the sizes are fixed, so every seed asks for the
   same amount of work.  Light iterations use small sizes (dominated by
   spawn and wake-up cost), heavy ones large sizes (throughput). *)

module Ad = Adapter

type size = { fib_n : int; queens_n : int; sort_len : int }

let light = { fib_n = 17; queens_n = 6; sort_len = 3_000 }
let heavy = { fib_n = 24; queens_n = 8; sort_len = 40_000 }
let arrays_per_size = 4
let plan_len = 4096

(* {1 Sequential references} *)

let rec fib_seq n = if n < 2 then n else fib_seq (n - 1) + fib_seq (n - 2)

let queens_seq n =
  let all = (1 lsl n) - 1 in
  let rec go cols d1 d2 =
    if cols = all then 1
    else begin
      let free = ref (all land lnot (cols lor d1 lor d2)) and count = ref 0 in
      while !free <> 0 do
        let bit = !free land - !free in
        free := !free lxor bit;
        count := !count + go (cols lor bit) ((d1 lor bit) lsl 1) ((d2 lor bit) lsr 1)
      done;
      !count
    end
  in
  go 0 0 0

let perms = [| [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |]; [| 1; 2; 0 |]; [| 2; 0; 1 |]; [| 2; 1; 0 |] |]

type inputs = {
  size : size;
  arrays : int array array;
  sorted : int array array;
  fib_ref : int;
  queens_ref : int;
  plan_perm : int array;
  plan_arr : int array;
}

let make_inputs rng size =
  let arrays =
    Array.init arrays_per_size (fun _ -> Array.init size.sort_len (fun _ -> Random.State.bits rng))
  in
  let sorted = Array.map (fun a -> let c = Array.copy a in Array.stable_sort Int.compare c; c) arrays in
  {
    size;
    arrays;
    sorted;
    fib_ref = fib_seq size.fib_n;
    queens_ref = queens_seq size.queens_n;
    plan_perm = Array.init plan_len (fun _ -> Random.State.int rng (Array.length perms));
    plan_arr = Array.init plan_len (fun _ -> Random.State.int rng arrays_per_size);
  }

(* The whole iteration run sequentially, for pool.work_inflation. *)
let sequential_ns inp =
  let t0 = Ad.now () in
  ignore (Sys.opaque_identity (fib_seq inp.size.fib_n));
  ignore (Sys.opaque_identity (queens_seq inp.size.queens_n));
  let c = Array.copy inp.arrays.(0) in
  Array.stable_sort Int.compare c;
  Ad.now () - t0

(* Run iteration [j] and verify it; returns whether every result was
   right and the iteration's start and end.  With [kernels], each
   kernel's start and end (in run order) are stamped into that pair of
   arrays: only traced rounds pay for those stamps. *)
let iteration ?kernels pool inp j =
  let perm = perms.(inp.plan_perm.(j mod plan_len)) in
  let arr = inp.plan_arr.(j mod plan_len) in
  let stamp f pos = match kernels with Some k -> (f k).(pos) <- Ad.now () | None -> () in
  let ok = ref true in
  let it_start = Ad.now () in
  Array.iteri
    (fun pos k ->
      stamp fst pos;
      (match k with
      | 0 -> if Ad.pool_run pool (fun () -> Ad.par_fib inp.size.fib_n) <> inp.fib_ref then ok := false
      | 1 ->
          if Ad.pool_run pool (fun () -> Ad.par_nqueens inp.size.queens_n) <> inp.queens_ref then
            ok := false
      | _ ->
          let out = Ad.pool_run pool (fun () -> Ad.par_sort inp.arrays.(arr)) in
          if out <> inp.sorted.(arr) then ok := false);
      stamp snd pos)
    perm;
  (!ok, it_start, Ad.now ())

(* Set-up: pool creation plus warm-up to the first verified result, a
   light iteration. *)
let set_up ~p light_in () =
  let pool = Util.pinned (fun () -> Ad.pool_create ~processes:p) in
  let ok, _, _ = iteration pool light_in 0 in
  if not ok then failwith "forkjoin: wrong result during set-up";
  pool

type round = { host : Util.round_host; light_ms : float array; heavy_ms : float array; traced : bool }

let run ~seed ~seconds ~trace =
  let p = Domain.recommended_domain_count () in
  let rng = Random.State.make [| seed; 0x0f07 |] in
  let light_in = make_inputs rng light and heavy_in = make_inputs rng heavy in
  let attempted = ref 0 and failed = ref 0 in
  let pool = set_up ~p light_in () in
  let seq_ns =
    if trace then Util.median (Array.init 3 (fun _ -> float_of_int (sequential_ns heavy_in))) else 0.
  in
  let spans = Spans.create () in
  let kernels = (Array.make 3 0, Array.make 3 0) in
  let iter_id = ref 0 in
  (* Run iterations of [inp] until [until]; returns their times in ms. *)
  let stretch ~traced inp until =
    let out = ref [] in
    while Ad.now () < until do
      let ok, t0, t1 = iteration ?kernels:(if traced then Some kernels else None) pool inp !iter_id in
      incr attempted;
      if not ok then incr failed;
      out := Util.ms_of_ns (t1 - t0) :: !out;
      if traced then begin
        let root = Spans.add spans ~name:"forkjoin.iter" ~id:!iter_id ~parent:(-1) ~start:t0 ~stop:t1 in
        let ks, ke = kernels in
        Array.iteri
          (fun pos a ->
            ignore (Spans.add spans ~name:"pool.run" ~id:!iter_id ~parent:root ~start:a ~stop:ke.(pos)))
          ks
      end;
      incr iter_id
    done;
    Array.of_list !out
  in
  let gc0 = Util.gc_snap () and c0 = Ad.pool_counts pool and ticks0 = Util.host_ticks () in
  let t_start = Ad.now () in
  let nrounds = Util.rounds_of ~seconds in
  let budget = seconds *. 1e9 /. float_of_int nrounds in
  (* In a traced run every other round is traced. *)
  let rounds =
    List.init nrounds (fun r ->
        let traced = trace && r mod 2 = 1 in
        let h0 = Util.round_begin () in
        let light_ms = stretch ~traced light_in (Ad.now () + int_of_float (budget *. Util.light_share)) in
        let heavy_ms =
          stretch ~traced heavy_in (Ad.now () + int_of_float (budget *. (1. -. Util.light_share)))
        in
        { host = Util.round_end h0; light_ms; heavy_ms; traced })
  in
  let elapsed_s = float_of_int (Ad.now () - t_start) /. 1e9 in
  let gc1 = Util.gc_snap () and c = Ad.counts_diff (Ad.pool_counts pool) c0 in
  let host = Util.host_signals ticks0 in
  Ad.pool_shutdown pool;
  let setups = Util.setup_times (set_up ~p light_in) Ad.pool_shutdown in
  let pooled f = Array.concat (List.map f rounds) in
  let lightl = pooled (fun r -> r.light_ms) and heavyl = pooled (fun r -> r.heavy_ms) in
  let q = Util.quantile in
  Printf.printf "forkjoin: P=%d, %d light + %d heavy iterations in %.1f s\n" p (Array.length lightl)
    (Array.length heavyl) elapsed_s;
  Printf.printf "  iter_ms.p50 %.4f ms, iter_ms.p90 %.4f ms (heavy iterations, n=%d)\n" (q heavyl 0.5)
    (q heavyl 0.9) (Array.length heavyl);
  Util.print_latency "light" lightl;
  Util.print_latency "heavy" heavyl;
  Printf.printf "  max_rps %.2f heavy iterations/s\n"
    (float_of_int (Array.length heavyl) /. (elapsed_s *. (1. -. Util.light_share)));
  Printf.printf "  heap_peak_mb %.2f MB\n  fail_frac %.6f\n" (Util.heap_peak_mb ())
    (Util.ratio !failed !attempted);
  let clean, valid, probe = Util.judge (List.map (fun r -> r.host) rounds) in
  let by_round f = Util.median_of_rounds (List.map2 (fun c r -> (c, f r)) clean rounds) in
  let end_to_end =
    [
      Util.setup_metric setups;
      Util.m "light.p50_ms" "ms" (by_round (fun r -> r.light_ms));
      Util.m "heavy.p50_ms" "ms" (by_round (fun r -> r.heavy_ms));
    ]
  in
  let heavy_where t = pooled (fun r -> if r.traced = t then r.heavy_ms else [||]) in
  let overhead =
    if trace then Util.median (heavy_where true) /. Util.median (heavy_where false) -. 1. else 0.
  in
  let per_layer =
    Util.counter_metrics c ~ops:!iter_id ~elapsed_s
    @ [
        Util.m "pool.work_inflation" "ratio"
          (if seq_ns > 0. then float_of_int p *. Util.median heavyl *. 1e6 /. seq_ns else 0.);
        Util.m "trace.overhead_frac" "ratio" overhead;
      ]
    @ (probe :: host)
    @ Util.gc_metrics ~ops:!iter_id ~seconds:elapsed_s gc0 gc1
  in
  let checks =
    [ ("resumes = suspensions", c.resumes = c.suspensions); ("no wrong result", !failed = 0); valid ]
  in
  (end_to_end, per_layer, spans, checks, !attempted, !failed)
