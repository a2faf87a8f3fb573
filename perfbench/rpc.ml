(* rpc_small and rpc_await: open-loop Poisson arrivals from one generator
   (the benchmark's own domain) into a Shard with k = 2 and nproc workers
   in total.  Affinity keys follow a Zipf law over a fixed key set, so
   one shard runs hot and cross-shard stealing has to balance it.

   rpc_small bodies are CPU-only (~50 us) and never spawn or suspend.
   rpc_await bulk bodies await a simulated downstream call (fulfilled off
   the pool, so resumption goes through the resume inbox) and then fan
   out a small Par.parallel_reduce; one request in ten instead goes on
   the Deadline lane with a tiny body and a relative deadline.

   Rates, ladder and p99 limit are constants: the offered load must not
   move with the code under test.  Latency is measured from each
   request's precomputed due time to the end of its body. *)

module Ad = Adapter

type kind = Small | Await

type params = {
  light_rps : float;
  heavy_rps : float;
  ladder : float array;  (** ascending request rates *)
  p99_limit_ms : float;
}

let params = function
  | Small ->
      {
        light_rps = 1000.;
        heavy_rps = 8000.;
        ladder = [| 10000.; 12000.; 14000.; 16000.; 18000.; 20000.; 22000.; 24000.; 26000. |];
        p99_limit_ms = 5.;
      }
  | Await ->
      {
        light_rps = 1000.;
        heavy_rps = 4000.;
        ladder = [| 8000.; 12000.; 16000.; 20000.; 24000.; 28000.; 32000. |];
        p99_limit_ms = 10.;
      }

let heavy_share = 0.5
let rung_s = 0.5
let keys = 64
let zipf_s = 1.5
let tasks = 256

(* CPU work: a multiply-add chain of [n] steps, ~2 ns a step. *)
let spin n seed =
  let x = ref seed in
  for _ = 1 to n do
    x := ((!x * 0x5DEECE66D) + 11) land 0xFFFF_FFFF_FFFF
  done;
  !x

let small_spin = 30_000 (* mean body of rpc_small, ~55 us *)
let backend_delay_s = 0.001
let fan = 64
let fan_spin = 400
let tiny_spin = 2_000 (* Deadline-lane bodies and the set-up request *)
let deadline_share = 0.1
let deadline_s = 0.05

(* The task table: request [i] runs task [task.(i)], whose result was
   computed sequentially beforehand: [expect] for the workload's bulk
   body, [tiny_expect] for the tiny body. *)
type table = { arg : int array; expect : int array; tiny_expect : int array }

let small_steps j = (small_spin / 2) + (small_spin * j / tasks)

let fan_sum x = Ad.par_sum ~n:fan (fun j -> spin fan_spin (x + j))

let fan_sum_seq x =
  let s = ref 0 in
  for j = 0 to fan - 1 do
    s := !s + spin fan_spin (x + j)
  done;
  !s

let make_table kind rng =
  let arg = Array.init tasks (fun _ -> Random.State.bits rng) in
  let expect =
    Array.init tasks (fun j ->
        match kind with Small -> spin (small_steps j) arg.(j) | Await -> fan_sum_seq arg.(j))
  in
  { arg; expect; tiny_expect = Array.init tasks (fun j -> spin tiny_spin arg.(j)) }

(* Zipf-distributed key ranks 0..keys-1, by inversion of the CDF. *)
let zipf_cdf =
  let w = Array.init keys (fun k -> 1. /. (float_of_int (k + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let zipf rng =
  let u = Random.State.float rng 1. in
  let rec find k = if k >= keys - 1 || u <= zipf_cdf.(k) then k else find (k + 1) in
  find 0

(* One window of arrivals at a fixed rate: inputs drawn from the seed,
   stamps filled in as it runs. *)
type window = {
  n : int;
  offset : int array;  (** due time after window start, ns *)
  task : int array;
  key : int array;
  deadline : bool array;
  due : int array;
  adm_start : int array;
  adm_end : int array;
  b_start : int array;
  aw_end : int array;
  b_end : int array;
  traced : bool;  (** stamp every layer boundary, not just due and end *)
  mutable sent : int;
  outcome : int array;  (** 0 pending, 1 correct, 2 refused, 3 failed, 4 wrong *)
}

let make_window ?(traced = false) kind ~seed ~index ~rate ~seconds =
  let rng = Random.State.make [| seed; index; (match kind with Small -> 1 | Await -> 2) |] in
  let horizon = seconds *. 1e9 in
  let offs = ref [] and t = ref 0. in
  while
    t := !t -. (log (1. -. Random.State.float rng 1.) /. rate *. 1e9);
    !t < horizon
  do
    offs := int_of_float !t :: !offs
  done;
  let offset = Array.of_list (List.rev !offs) in
  let n = Array.length offset in
  let z () = Array.make n 0 in
  {
    n;
    offset;
    task = Array.init n (fun _ -> Random.State.int rng tasks);
    key = Array.init n (fun _ -> zipf rng);
    deadline =
      Array.init n (fun _ -> kind = Await && Random.State.float rng 1. < deadline_share);
    due = z ();
    adm_start = z ();
    adm_end = z ();
    b_start = z ();
    aw_end = z ();
    b_end = z ();
    traced;
    sent = 0;
    outcome = z ();
  }

(* Sleep until just before [due] (a sleep overshoots by ~55 us on Linux
   timer slack), then spin the short remainder. *)
let slack_ns = 60_000

let wait_until due =
  let d = due - Ad.now () in
  if d > slack_ns then Unix.sleepf (float_of_int (d - slack_ns + 2_000) *. 1e-9);
  while Ad.now () < due do
    Domain.cpu_relax ()
  done

type env = {
  kind : kind;
  svc : Ad.service;
  backend : Ad.backend option;  (** rpc_await's downstream; rpc_small has none *)
  table : table;
  finished : int Atomic.t;
}

let body env w i =
  let j = w.task.(i) in
  if w.deadline.(i) then fun () ->
    if w.traced then w.b_start.(i) <- Ad.now ();
    let v = spin tiny_spin env.table.arg.(j) in
    w.b_end.(i) <- Ad.now ();
    Atomic.incr env.finished;
    (v, env.table.tiny_expect.(j))
  else
    match env.kind with
    | Small ->
        fun () ->
          if w.traced then w.b_start.(i) <- Ad.now ();
          let v = spin (small_steps j) env.table.arg.(j) in
          w.b_end.(i) <- Ad.now ();
          Atomic.incr env.finished;
          (v, env.table.expect.(j))
    | Await ->
        fun () ->
          let t_call = Ad.now () in
          let downstream = Option.get env.backend in
          let x = Ad.await (Ad.backend_call downstream ~delay_s:backend_delay_s env.table.arg.(j)) in
          if w.traced then begin
            w.b_start.(i) <- t_call;
            w.aw_end.(i) <- Ad.now ()
          end;
          let v = fan_sum x in
          w.b_end.(i) <- Ad.now ();
          Atomic.incr env.finished;
          (v, env.table.expect.(j))

(* Offer the window's arrivals on schedule and wait for every accepted
   request to settle.  With [backlog_cap], stop offering once more than
   that many requests are outstanding (a ladder rung that cannot keep
   up).  Returns [false] when stopped early. *)
let run_window ?backlog_cap env w =
  let tickets = Array.make w.n None in
  let t0 = Ad.now () + 500_000 in
  let base = Atomic.get env.finished in
  let stopped = ref false in
  let i = ref 0 in
  while !i < w.n && not !stopped do
    let k = !i in
    let due = t0 + w.offset.(k) in
    w.due.(k) <- due;
    wait_until due;
    w.adm_start.(k) <- Ad.now ();
    let lane = if w.deadline.(k) then Ad.Deadline else Ad.Bulk in
    let t =
      Ad.admit env.svc ~key:w.key.(k) ~lane
        ~deadline_s:(if w.deadline.(k) then deadline_s else 0.)
        (body env w k)
    in
    if w.traced then w.adm_end.(k) <- Ad.now ();
    tickets.(k) <- t;
    if Option.is_none t then w.outcome.(k) <- 2;
    incr i;
    match backlog_cap with
    | Some cap when k land 31 = 0 && !i - (Atomic.get env.finished - base) > cap -> stopped := true
    | _ -> ()
  done;
  w.sent <- !i;
  for k = 0 to w.sent - 1 do
    match tickets.(k) with
    | None -> ()
    | Some t -> (
        match Ad.wait t with
        | Ad.Failed -> w.outcome.(k) <- 3
        | Ad.Value (v, expect) -> w.outcome.(k) <- (if v = expect then 1 else 4))
  done;
  not !stopped

let count w o =
  let c = ref 0 in
  for k = 0 to w.sent - 1 do
    if w.outcome.(k) = o then incr c
  done;
  !c

(* Sojourn (due to settle) in ms of the window's requests of one class;
   a request that did not complete correctly counts as infinitely late. *)
let sojourn_ms w ~deadline_class =
  let out = ref [] in
  for k = w.sent - 1 downto 0 do
    if w.deadline.(k) = deadline_class then
      out := (if w.outcome.(k) = 1 then Util.ms_of_ns (w.b_end.(k) - w.due.(k)) else infinity) :: !out
  done;
  Array.of_list !out

let concat_map f ws = Array.concat (List.map f ws)

(* Highest rate that meets the p99 limit, interpolated in log p99
   between the last passing rung and the first failing one. *)
let max_rps prm rungs =
  let limit = prm.p99_limit_ms in
  let rec go prev = function
    | [] -> ( match prev with Some (r, _) -> r | None -> 0.)
    | (r, p99, ok) :: rest -> (
        if ok && p99 <= limit then go (Some (r, p99)) rest
        else
          match prev with
          | None -> 0.
          | Some (r0, p0) ->
              let p1 = if Float.is_finite p99 then max p99 (limit *. 1.0001) else limit *. 10. in
              let p0 = min p0 limit in
              let frac = (log limit -. log p0) /. (log p1 -. log p0) in
              r0 +. (max 0. (min 1. frac) *. (r -. r0)))
  in
  go None rungs

let per_shard () = max 1 (Domain.recommended_domain_count () / 2)

(* Service (and, for rpc_await, backend) creation plus warm-up to the
   first verified result: a tiny CPU-only request, so the downstream's
   fixed delay is no part of it.  Raises on a failed request. *)
let set_up kind table () =
  let e =
    {
      kind;
      svc = Util.pinned (fun () -> Ad.service_create ~shards:2 ~processes:(per_shard ()));
      backend = (match kind with Await -> Some (Ad.backend_create ()) | Small -> None);
      table;
      finished = Atomic.make 0;
    }
  in
  let first () = (spin tiny_spin table.arg.(0), table.tiny_expect.(0)) in
  (match Ad.admit e.svc ~key:0 ~lane:Ad.Bulk ~deadline_s:0. first with
  | Some t -> (
      match Ad.wait t with
      | Ad.Value (v, expect) when v = expect -> ()
      | _ -> failwith "rpc: set-up request failed")
  | None -> failwith "rpc: set-up request refused");
  e

let tear_down e =
  Option.iter Ad.backend_stop e.backend;
  ignore (Ad.service_drain e.svc);
  Ad.service_shutdown e.svc

(* The rate ladder, ascending, stopping at the first failing rung or when
   [until] has passed.  Returns max_rps and the count of wrong results. *)
let run_ladder env prm ~seed ~until =
  let rungs = ref [] and wrong = ref 0 in
  (try
     Array.iteri
       (fun r rate ->
         if Ad.now () > until then raise Exit;
         let w = make_window env.kind ~seed ~index:(1000 + r) ~rate ~seconds:rung_s in
         let kept_up = run_window ~backlog_cap:(int_of_float (rate *. 0.05)) env w in
         let ok = kept_up && count w 1 = w.sent in
         let p99 = Util.quantile (sojourn_ms w ~deadline_class:false) 0.99 in
         Printf.printf "  ladder %6.0f req/s: p99 %.3f ms, %d/%d ok%s\n" rate p99 (count w 1) w.sent
           (if kept_up then "" else ", backlog");
         rungs := (rate, p99, ok) :: !rungs;
         wrong := !wrong + count w 4;
         if not (ok && p99 <= prm.p99_limit_ms) then raise Exit)
       prm.ladder
   with Exit -> ());
  (max_rps prm (List.rev !rungs), !wrong)

let run kind ~seed ~seconds ~trace =
  let prm = params kind in
  let name = match kind with Small -> "rpc_small" | Await -> "rpc_await" in
  let rng = Random.State.make [| seed; 0x29c |] in
  let table = make_table kind rng in
  let env = set_up kind table () in
  let per_shard = per_shard () in
  let svc = env.svc in
  let gc0 = Util.gc_snap ()
  and c0 = Ad.service_counts svc
  and ticks0 = Util.host_ticks ()
  and routes0 = Ad.route_counts svc
  and cross0 = (Ad.cross_polls svc, Ad.cross_steals svc, Ad.cross_tasks svc)
  and misses0 = Ad.deadline_misses svc in
  let t_start = Ad.now () in
  (* Each round runs a light then a heavy window; in a traced run every
     other heavy window is traced. *)
  let nrounds = Util.rounds_of ~seconds in
  let window_s share = seconds *. share /. float_of_int nrounds in
  let rounds =
    List.init nrounds (fun r ->
        let h0 = Util.round_begin () in
        let l =
          make_window kind ~seed ~index:(2 * r) ~rate:prm.light_rps ~seconds:(window_s Util.light_share)
        in
        let h =
          make_window ~traced:(trace && r mod 2 = 1) kind ~seed ~index:((2 * r) + 1) ~rate:prm.heavy_rps
            ~seconds:(window_s heavy_share)
        in
        ignore (run_window env l);
        ignore (run_window env h);
        (Util.round_end h0, l, h))
  in
  let elapsed_s = float_of_int (Ad.now () - t_start) /. 1e9 in
  let gc1 = Util.gc_snap () and c = Ad.counts_diff (Ad.service_counts svc) c0 in
  let routes = Array.map2 ( - ) (Ad.route_counts svc) routes0 in
  let cp0, cs0, ct0 = cross0 in
  let cross_polls = Ad.cross_polls svc - cp0
  and cross_steals = Ad.cross_steals svc - cs0
  and cross_tasks = Ad.cross_tasks svc - ct0 in
  let depth_peak = Ad.inbox_high_water svc in
  let misses = Ad.deadline_misses svc - misses0 in
  let host = Util.host_signals ticks0 in
  let max_rps, ladder_wrong =
    run_ladder env prm ~seed
      ~until:(Ad.now () + int_of_float (seconds *. (1. -. Util.light_share -. heavy_share) *. 1e9))
  in
  (* Drain, then check the service's identities. *)
  Option.iter Ad.backend_stop env.backend;
  let suspended = Ad.service_drain svc in
  let c_end = Ad.service_counts svc in
  let conserved = Ad.service_conserved svc in
  Ad.service_shutdown svc;
  let setups = Util.setup_times (set_up kind table) tear_down in
  let lights = List.map (fun (_, l, _) -> l) rounds in
  let heavies = List.map (fun (_, _, h) -> h) rounds in
  let traced = List.filter (fun w -> w.traced) heavies in
  let measured = lights @ heavies in
  let sum f = List.fold_left (fun a w -> a + f w) 0 measured in
  let attempted = sum (fun w -> w.sent) in
  let failed = attempted - sum (fun w -> count w 1) in
  let bulk ws = concat_map (sojourn_ms ~deadline_class:false) ws in
  let light_l = bulk lights and heavy_l = bulk heavies in
  let dl = concat_map (sojourn_ms ~deadline_class:true) heavies in
  let lag_ms =
    concat_map (fun w -> Array.init w.sent (fun k -> Util.ms_of_ns (w.adm_start.(k) - w.due.(k)))) measured
  in
  let q = Util.quantile in
  Printf.printf "%s: k=2 x %d workers, %d requests in %.1f s (light %.0f req/s, heavy %.0f req/s)\n" name
    per_shard attempted elapsed_s prm.light_rps prm.heavy_rps;
  Util.print_latency "light" light_l;
  Util.print_latency "heavy" heavy_l;
  if kind = Await then Printf.printf "  deadline.p99_ms %.4f ms (n=%d, heavy rate)\n" (q dl 0.99) (Array.length dl);
  Printf.printf "  max_rps %.0f req/s (p99 limit %.1f ms)\n" max_rps prm.p99_limit_ms;
  Printf.printf "  heap_peak_mb %.2f MB\n" (Util.heap_peak_mb ());
  Printf.printf "  fail_frac %.6f, loadgen.lag_ms.p99 %.4f ms\n" (Util.ratio failed attempted) (q lag_ms 0.99);
  let clean, valid, probe = Util.judge (List.map (fun (h, _, _) -> h) rounds) in
  let by_round f =
    List.map2 (fun c r -> (c, sojourn_ms ~deadline_class:false (f r))) clean rounds
  in
  let end_to_end =
    [
      Util.setup_metric setups;
      Util.m "light.p50_ms" "ms" (Util.median_of_rounds (by_round (fun (_, l, _) -> l)));
      Util.m "heavy.p50_ms" "ms" (Util.median_of_rounds (by_round (fun (_, _, h) -> h)));
    ]
  in
  (* Per-layer figures from the traced heavy windows' stamps. *)
  let stamp f = concat_map (fun w -> Array.init w.sent (fun k -> float_of_int (f w k) /. 1e3)) traced in
  let admit_us = stamp (fun w k -> w.adm_end.(k) - w.adm_start.(k)) in
  let queue_us = stamp (fun w k -> max 0 (w.b_start.(k) - w.adm_end.(k))) in
  let run_us = stamp (fun w k -> w.b_end.(k) - w.b_start.(k)) in
  let delay_ns = int_of_float (backend_delay_s *. 1e9) in
  let resume_us =
    concat_map
      (fun w ->
        Util.select
          (Array.init w.sent (fun k -> w.aw_end.(k) - w.b_start.(k) - delay_ns))
          (fun k -> kind = Await && not w.deadline.(k)))
      traced
    |> Array.map (fun ns -> ns /. 1e3)
  in
  let spans = Spans.create () in
  List.iteri
    (fun wi w ->
      for k = 0 to w.sent - 1 do
        let id = (wi lsl 24) lor k in
        let add name parent a b = Spans.add spans ~name ~id ~parent ~start:a ~stop:b in
        let root = add "rpc" (-1) w.due.(k) w.b_end.(k) in
        ignore (add "loadgen.lag" root w.due.(k) w.adm_start.(k));
        ignore (add "serve.admit" root w.adm_start.(k) w.adm_end.(k));
        ignore (add "serve.queue" root w.adm_end.(k) (max w.adm_end.(k) w.b_start.(k)));
        let run = add "serve.run" root w.b_start.(k) w.b_end.(k) in
        if kind = Await && not w.deadline.(k) then begin
          ignore (add "fiber.await" run w.b_start.(k) w.aw_end.(k));
          ignore (add "pool.fanout" run w.aw_end.(k) w.b_end.(k))
        end
      done)
    traced;
  let per_op x = Util.ratio x attempted in
  let mean_routes = float_of_int (Array.fold_left ( + ) 0 routes) /. float_of_int (Array.length routes) in
  let untraced = List.filter (fun w -> not w.traced) heavies in
  let overhead = if trace then q (bulk traced) 0.5 /. q (bulk untraced) 0.5 -. 1. else 0. in
  let per_layer =
    Util.counter_metrics c ~ops:attempted ~elapsed_s
    @ [
        Util.m "fiber.resume_lag_us.p50" "us" (q resume_us 0.5);
        Util.m "fiber.resume_lag_us.p99" "us" (q resume_us 0.99);
        Util.m "injector.depth_peak" "count" (float_of_int depth_peak);
        Util.m "serve.admit_us.p50" "us" (q admit_us 0.5);
        Util.m "serve.admit_us.p99" "us" (q admit_us 0.99);
        Util.m "serve.queue_us.p50" "us" (q queue_us 0.5);
        Util.m "serve.queue_us.p99" "us" (q queue_us 0.99);
        Util.m "serve.run_us.p50" "us" (q run_us 0.5);
        Util.m "serve.inject_hit_ratio" "ratio" (Util.ratio c.inject_tasks c.inject_polls);
        Util.m "serve.deadline_misses" "count" (float_of_int misses);
        Util.m "shard.route_imbalance" "ratio"
          (float_of_int (Array.fold_left max 0 routes) /. max 1. mean_routes);
        Util.m "shard.cross_hit_ratio" "ratio" (Util.ratio cross_steals cross_polls);
        Util.m "shard.cross_tasks_per_op" "count" (per_op cross_tasks);
        Util.m "loadgen.lag_ms.p99" "ms" (q lag_ms 0.99);
        Util.m "trace.overhead_frac" "ratio" overhead;
      ]
    @ (probe :: host)
    @ Util.gc_metrics ~ops:attempted ~seconds:elapsed_s gc0 gc1
  in
  let checks =
    [
      ("Shard.conserved", conserved);
      ("suspended = 0", suspended = 0);
      ("resumes = suspensions", c_end.resumes = c_end.suspensions);
      ("no failed request in the light and heavy phases", failed = 0);
      ("no wrong result on the ladder", ladder_wrong = 0);
      valid;
    ]
  in
  (end_to_end, per_layer, spans, checks, attempted, failed)
