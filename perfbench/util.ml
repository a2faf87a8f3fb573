(* Statistics, host signals and the result line. *)

let ms_of_ns ns = float_of_int ns /. 1e6

(* Nearest-rank quantile of a sample (0 when empty). *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let a = Array.copy a in
    Array.sort Float.compare a;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))
  end

let median a = quantile a 0.5

(* Floats of the ints [a.(i)] for which [keep i] holds. *)
let select (a : int array) keep =
  let out = ref [] in
  for i = Array.length a - 1 downto 0 do
    if keep i then out := float_of_int a.(i) :: !out
  done;
  Array.of_list !out

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* {1 Thread placement and idle vCPUs}

   Left to the scheduler, a run's threads either all shared one vCPU,
   where a wake-up is cheap, or spread over both, and a run kept
   whichever it fell into: rpc_small's light p50 read 0.055 ms in 2 of
   10 runs and 0.11-0.15 ms in the others.  So the benchmark fixes the
   placement: its own domain (forkjoin's worker 0, rpc's generator and
   downstream) on CPU 0, every domain a pool spawns on the other CPUs.

   Spread over both, a parked worker's wake-up had to wake its halted
   vCPU through the hypervisor, and rpc_small's light p50 wandered
   between 0.075 and 0.19 ms from one round to the next; with every
   vCPU kept out of halt it read 0.043-0.047 ms.  So a run keeps every
   CPU awake (see affinity_stubs.c): the benchmark measures the
   library's park and wake path, not the host's. *)
external pin_cpus : int -> int -> bool = "perfbench_pin_cpus" [@@noalloc]
external keepers_start : int -> int = "perfbench_keepers_start"
external keepers_stop : unit -> unit = "perfbench_keepers_stop"
external keepers_ran_ns : unit -> int = "perfbench_keepers_ran_ns" [@@noalloc]
external keepers_stalled_ns : unit -> int = "perfbench_keepers_stalled_ns" [@@noalloc]

let ncpu = Domain.recommended_domain_count ()

(* [create ()] with the domains it spawns placed on CPUs 1..ncpu-1; the
   calling thread stays on CPU 0.  On one CPU there is nothing to fix. *)
let pinned create =
  if ncpu < 2 then create ()
  else begin
    ignore (pin_cpus 1 ncpu);
    Fun.protect ~finally:(fun () -> ignore (pin_cpus 0 1)) create
  end

(* [f ()] with every CPU kept out of halt. *)
let awake f =
  let started = keepers_start ncpu in
  Printf.printf "  %d of %d CPUs kept awake\n" started ncpu;
  Fun.protect ~finally:keepers_stop f

(* {1 Host signals} *)

(* CPU ticks of the whole machine (aggregate "cpu" line of /proc/stat) and
   of this process (/proc/self/stat), zeros where the files are
   unavailable; and the keepers' running and stalled time in ns. *)
type ticks = { busy : int; steal : int; total : int; self : int; ran : int; stalled : int }

let read_line path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)

let proc_ticks () =
  let zero = { busy = 0; steal = 0; total = 0; self = 0; ran = 0; stalled = 0 } in
  try
    let words s = String.split_on_char ' ' s |> List.filter (( <> ) "") in
    let self =
      (* Fields after the parenthesised command name: utime and stime are
         the 12th and 13th. *)
      let l = read_line "/proc/self/stat" in
      let rest = String.sub l (String.rindex l ')' + 1) (String.length l - String.rindex l ')' - 1) in
      match words rest with
      | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: utime :: stime :: _ ->
          int_of_string utime + int_of_string stime
      | _ -> 0
    in
    match words (read_line "/proc/stat") with
    | "cpu" :: user :: nice :: sys :: idle :: iowait :: irq :: softirq :: steal :: _ ->
        let i = int_of_string in
        let work = i user + i nice + i sys + i irq + i softirq in
        { zero with busy = work + i steal; steal = i steal; total = work + i idle + i iowait; self }
    | _ -> zero
  with Sys_error _ | End_of_file | Failure _ | Not_found | Invalid_argument _ -> zero

let host_ticks () = { (proc_ticks ()) with ran = keepers_ran_ns (); stalled = keepers_stalled_ns () }

(* Between the samples [t0] and [t1]: hypervisor steal as a share of
   busy ticks; the share of the machine's CPU time that other processes
   (which steal does not count) used; and host stalls that the
   hypervisor did not report as steal, as a share of the keepers'
   running time. *)
let host_fracs t0 t1 =
  let other = t1.busy - t1.steal - (t0.busy - t0.steal) - (t1.self - t0.self) in
  ( ratio (t1.steal - t0.steal) (t1.busy - t0.busy),
    ratio (max 0 other) (t1.total - t0.total),
    ratio (t1.stalled - t0.stalled) (t1.ran - t0.ran) )

let host_signals t0 =
  let steal, other, stall = host_fracs t0 (host_ticks ()) in
  [
    m "host.steal_frac" "ratio" steal;
    m "host.other_busy_frac" "ratio" other;
    m "host.stall_frac" "ratio" stall;
  ]

(* {1 Rounds and run validity}

   A run is cut into rounds of about a second, each a light stretch
   then a heavy one, so slow drifts of the shared host hit both.  A
   round is spoiled when any host signal exceeded [spoiled_frac], or
   when the speed probe, a fixed CPU-only loop of the benchmark's own
   timed as the round starts, ran more than [slow_factor] times slower
   than in the run's fastest round: the shared host also slows the
   whole VM by up to 2x with no steal, no stall and no other load to
   show for it.  A spoiled round's samples stay in the printed pooled
   figures but not in the gated estimates.  A run with fewer than half
   its rounds clean is invalid: it fails the "host quiet" check and
   exits 1, so a run the host spoiled is never compared with another.
   A host that is slow for a whole run is caught by none of this; the
   probe's time, [host.probe_us], shows it beside the run's figures. *)
let rounds_per_s = 1.
let light_share = 0.3
let spoiled_frac = 0.2
let slow_factor = 1.3

let rounds_of ~seconds = max 4 (int_of_float (seconds *. rounds_per_s))

(* The probe: a multiply-add chain.  It allocates nothing: a probe that
   sorted a fresh array varied by 1.6x between rounds, as minor
   collections, which stop every domain, fell into it or not. *)
let probe () =
  let x = ref 1 in
  for _ = 1 to 20_000 do
    x := ((!x * 0x5DEECE66D) + 11) land 0xFFFF_FFFF_FFFF
  done;
  !x

(* Best of five runs of the probe, in us. *)
let speed_probe_us () =
  let best = ref max_int in
  for _ = 1 to 5 do
    let t0 = Adapter.now () in
    ignore (Sys.opaque_identity (probe ()));
    best := min !best (Adapter.now () - t0)
  done;
  float_of_int !best /. 1e3

type round_host = { quiet : bool; probe_us : float }

let round_begin () =
  let t0 = host_ticks () in
  (t0, speed_probe_us ())

let round_end (t0, probe_us) =
  let steal, other, stall = host_fracs t0 (host_ticks ()) in
  { quiet = steal <= spoiled_frac && other <= spoiled_frac && stall <= spoiled_frac; probe_us }

(* Each round's clean flag, the validity check and the probe metric. *)
let judge rounds =
  let best = List.fold_left (fun a r -> Float.min a r.probe_us) infinity rounds in
  let clean = List.map (fun r -> r.quiet && r.probe_us <= slow_factor *. best) rounds in
  let n_clean = List.length (List.filter Fun.id clean) and n = List.length rounds in
  Printf.printf "  speed probe per round (us):%s\n"
    (String.concat "" (List.map (fun r -> Printf.sprintf " %.1f" r.probe_us) rounds));
  Printf.printf
    "  %d of %d rounds clean (host steal, other load and stalls <= %.2f, probe <= %.1fx the best %.2f us)\n"
    n_clean n spoiled_frac slow_factor best;
  ( clean,
    ("host quiet in at least half the rounds", 2 * n_clean >= n),
    m "host.probe_us" "us" (median (Array.of_list (List.map (fun r -> r.probe_us) rounds))) )

type gc_snap = { minor_words : float; minor_collections : int; major_collections : int }

let gc_snap () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.minor_words;
    minor_collections = s.minor_collections;
    major_collections = s.major_collections;
  }

let gc_metrics ~ops ~seconds g0 g1 =
  [
    m "gc.minor_words_per_op" "words" ((g1.minor_words -. g0.minor_words) /. float_of_int (max 1 ops));
    m "gc.minor_collections_per_s" "1/s"
      (float_of_int (g1.minor_collections - g0.minor_collections) /. seconds);
    m "gc.major_collections" "count" (float_of_int (g1.major_collections - g0.major_collections));
  ]

(* The pools' counter deltas over a run of [ops] operations (forkjoin
   iterations or requests) lasting [elapsed_s]. *)
let counter_metrics (c : Adapter.counts) ~ops ~elapsed_s =
  let per_op x = ratio x ops in
  [
    m "deque.steal_hit_ratio" "ratio" (ratio c.steals c.steal_attempts);
    m "deque.cas_fail_ratio" "ratio" (ratio c.cas_failures (c.steal_attempts + c.pops));
    m "pool.tasks_per_op" "count" (per_op c.pushes);
    m "pool.steal_attempts_per_task" "count" (ratio c.steal_attempts (c.pushes + c.inject_tasks));
    m "pool.parks_per_s" "1/s" (float_of_int c.parks /. elapsed_s);
    m "fiber.suspensions_per_op" "count" (per_op c.suspensions);
  ]

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* {1 Latency estimates} *)

(* The gated typical latency: the median, over the clean rounds, of each
   round's median.  A burst of host interference moves the rounds it
   spoils and leaves the median of the others; a change to the code
   moves every round.  [rounds] holds (clean, samples) per round. *)
let median_of_rounds rounds =
  median
    (Array.of_list
       (List.filter_map
          (fun (clean, a) -> if clean && Array.length a > 0 then Some (median a) else None)
          rounds))

(* {1 Set-up} *)

let setup_reps = 31

(* [setup_reps] timed set-ups, each torn down untimed.  They run after
   the measurement, when the host's vCPUs are awake (right after an idle
   spell, waking them added milliseconds to every domain spawn), each
   after a full major collection, so that no rep pays the measurement's
   GC debt (without it, whole runs read 3x slower).  The CPU keepers
   pause meanwhile: with them spinning, creating a Shard took 1.2 ms
   instead of 0.8, and 3-5 ms in a fifth to a half of the reps. *)
let setup_times set_up tear_down =
  keepers_stop ();
  Fun.protect ~finally:(fun () -> ignore (keepers_start ncpu)) (fun () ->
      Array.init setup_reps (fun _ ->
          Gc.full_major ();
          let t0 = Adapter.now () in
          let x = set_up () in
          let dt = float_of_int (Adapter.now () - t0) /. 1e9 in
          tear_down x;
          dt))

(* The set-up metric: the median of a run's set-up times, all printed. *)
let setup_metric times =
  Printf.printf "  setup times (s):%s\n"
    (String.concat "" (List.map (Printf.sprintf " %.5f") (Array.to_list times)));
  m "setup_s" "s" (median times)

(* Pooled quantiles of a latency class, printed with the sample count. *)
let print_latency cls samples =
  Printf.printf "  %s: n=%d; p50 %.4f p90 %.4f p99 %.4f ms\n" cls (Array.length samples)
    (quantile samples 0.5) (quantile samples 0.9) (quantile samples 0.99)

(* {1 Output} *)

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun r -> Printf.printf "  %-32s %14.6g %s\n" r.name r.value r.unit_) rows

(* A latency made infinite by failed requests prints as 1e308, worse than
   any measurement. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "1e308"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun r ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" r.name (json_number r.value) r.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " body)
