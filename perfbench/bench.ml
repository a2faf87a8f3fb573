(* The repository benchmark.

     bench.exe --workload forkjoin|rpc_small|rpc_await --seed N
               --seconds S --trace 0|1 [--spans FILE]

   Runs one workload for about S seconds against the library's public
   API, verifies every result and the serving layer's identities, prints
   human-readable figures, and ends with one JSON line: the end-to-end
   metrics with --trace 0, the per-layer metrics (ledger, ladder and
   layer self times) with --trace 1.  Exits 1 when a check fails. *)

let end_to_end_names = [ "setup_s"; "light.p50_ms"; "heavy.p50_ms" ]

(* Spans whose self time is reported, per operation. *)
let span_names =
  [ "forkjoin.iter"; "pool.run"; "rpc"; "loadgen.lag"; "serve.admit"; "serve.queue"; "serve.run";
    "fiber.await"; "pool.fanout" ]

(* Every per-layer metric, in output order; a workload that does not
   touch a layer reports 0 for it. *)
let per_layer_names =
  [
    ("deque.push_pop_ns", "ns"); ("deque.push_pop_words", "words"); ("deque.steal_ns", "ns");
    ("deque.steal_words", "words"); ("deque.steal_hit_ratio", "ratio");
    ("deque.cas_fail_ratio", "ratio"); ("pool.spawn_force_ns", "ns");
    ("pool.spawn_force_words", "words"); ("pool.tasks_per_op", "count");
    ("pool.steal_attempts_per_task", "count"); ("pool.work_inflation", "ratio");
    ("pool.parks_per_s", "1/s"); ("fiber.run_ns", "ns"); ("fiber.run_words", "words");
    ("fiber.await_fulfil_ns", "ns"); ("fiber.await_fulfil_words", "words");
    ("fiber.suspensions_per_op", "count"); ("fiber.resume_lag_us.p50", "us");
    ("fiber.resume_lag_us.p99", "us"); ("injector.push_pop_ns", "ns");
    ("injector.push_pop_words", "words"); ("injector.depth_peak", "count");
    ("serve.admit_settle_ns", "ns"); ("serve.admit_settle_words", "words");
    ("serve.admit_us.p50", "us"); ("serve.admit_us.p99", "us"); ("serve.queue_us.p50", "us");
    ("serve.queue_us.p99", "us"); ("serve.run_us.p50", "us"); ("serve.inject_hit_ratio", "ratio");
    ("serve.deadline_misses", "count"); ("shard.admit_ns", "ns"); ("shard.admit_words", "words");
    ("shard.route_imbalance", "ratio"); ("shard.cross_hit_ratio", "ratio");
    ("shard.cross_tasks_per_op", "count"); ("gc.minor_words_per_op", "words");
    ("gc.minor_collections_per_s", "1/s"); ("gc.major_collections", "count");
    ("loadgen.lag_ms.p99", "ms"); ("trace.overhead_frac", "ratio"); ("host.steal_frac", "ratio");
    ("host.other_busy_frac", "ratio"); ("host.stall_frac", "ratio");
    ("host.probe_us", "us");
  ]
  @ List.map (fun s -> ("self." ^ s ^ "_us", "us")) span_names

let usage () =
  prerr_endline
    "usage: bench.exe --workload forkjoin|rpc_small|rpc_await --seed N --seconds S --trace 0|1 \
     [--spans FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let spans_file = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--spans" :: v :: rest -> spans_file := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  let trace = !trace = 1 and seed = !seed in
  (* A traced run also measures the ladder; the workload gets the rest. *)
  let seconds = if trace then max 1. (!seconds -. 2.) else !seconds in
  let run =
    match !workload with
    | "forkjoin" -> Forkjoin.run
    | "rpc_small" -> Rpc.run Rpc.Small
    | "rpc_await" -> Rpc.run Rpc.Await
    | _ -> usage ()
  in
  let host0 = Util.host_ticks () in
  let (end_to_end, per_layer, spans, checks, attempted, failed), ladder =
    Util.awake (fun () ->
        let r = run ~seed ~seconds ~trace in
        (r, if trace then Ladder.run () else []))
  in
  (* Layer self times per operation, i.e. per root span. *)
  let self =
    let ops = float_of_int (max 1 (Spans.roots spans)) in
    List.map
      (fun (name, (_, self_ns)) ->
        Util.m ("self." ^ name ^ "_us") "us" (float_of_int self_ns /. 1e3 /. ops))
      (Spans.self_times spans)
  in
  let correct = List.for_all snd checks in
  List.iter (fun (name, ok) -> if not ok then Printf.printf "CHECK FAILED: %s\n" name) checks;
  List.iter
    (fun (r : Util.metric) -> Printf.printf "%s %.4f over the run\n" r.name r.value)
    (Util.host_signals host0);
  Util.print_table "end-to-end:" end_to_end;
  let metrics =
    if not trace then
      List.map
        (fun name ->
          match List.find_opt (fun (r : Util.metric) -> r.name = name) end_to_end with
          | Some r -> r
          | None -> failwith ("missing end-to-end metric " ^ name))
        end_to_end_names
    else begin
      let have = per_layer @ ladder @ self in
      let rows =
        List.map
          (fun (name, unit_) ->
            match List.find_opt (fun (r : Util.metric) -> r.name = name) have with
            | Some r -> r
            | None -> Util.m name unit_ 0.)
          per_layer_names
      in
      Util.print_table "per-layer:" rows;
      if self <> [] then
        Printf.printf "layer self times sum to %.3f us per operation\n"
          (List.fold_left (fun a (r : Util.metric) -> a +. r.value) 0. self);
      if !spans_file <> "" then Spans.write spans !spans_file;
      rows
    end
  in
  Util.print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
