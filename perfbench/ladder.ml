(* The per-layer ladder: each layer's isolated cost per operation, in ns
   and in minor-heap words allocated by the calling domain.  These rows
   are what the workloads' per-layer self times are read against. *)

module Ad = Adapter

let reps = 7
let target_ns = 15_000_000

(* [op n] performs [n] operations; it is run with a doubling [n] until
   one call takes [target_ns], then [reps] times at that size.  Returns
   (median ns/op, median words/op). *)
let measure op =
  let time n =
    let w0 = Gc.minor_words () in
    let t0 = Ad.now () in
    op n;
    let t1 = Ad.now () in
    (t1 - t0, (Gc.minor_words () -. w0) /. float_of_int n)
  in
  let rec size n = if n >= 1 lsl 24 || fst (time n) >= target_ns then n else size (2 * n) in
  let n = size 64 in
  let runs = Array.init reps (fun _ -> time n) in
  ( Util.median (Array.map (fun (ns, _) -> float_of_int ns /. float_of_int n) runs),
    Util.median (Array.map snd runs) )

let deque_push_pop n =
  let d = Ad.Deque.create () in
  for i = 1 to n do
    Ad.Deque.push_bottom d i;
    ignore (Sys.opaque_identity (Ad.Deque.pop_bottom d))
  done

(* Only the owner's pop of an empty deque resets its indices (Figure 5),
   so the pair is interleaved with one such pop per 1024 pairs. *)
let deque_push_steal n =
  let d = Ad.Deque.create () in
  for i = 1 to n do
    Ad.Deque.push_bottom d i;
    ignore (Sys.opaque_identity (Ad.Deque.pop_top d));
    if i land 1023 = 0 then ignore (Ad.Deque.pop_bottom d)
  done

let injector_push_pop n =
  let q = Ad.Injector.create () in
  for i = 1 to n do
    ignore (Ad.Injector.try_push q i);
    ignore (Sys.opaque_identity (Ad.Injector.try_pop q))
  done

let fiber_run n =
  let body () = () in
  for _ = 1 to n do
    Ad.fiber_run_inline body
  done

let await_fulfil n =
  for _ = 1 to n do
    let p = Ad.promise_create () in
    Ad.fiber_run_inline (fun () -> ignore (Sys.opaque_identity (Ad.await p)));
    Ad.promise_fulfil p ()
  done

let spawn_force pool n =
  Ad.pool_run pool (fun () ->
      for i = 1 to n do
        ignore (Sys.opaque_identity (Ad.force (Ad.spawn (fun () -> i))))
      done)

let admit_settle svc n =
  for i = 1 to n do
    match Ad.admit svc ~key:i ~lane:Ad.Bulk ~deadline_s:0. (fun () -> i) with
    | Some t -> ignore (Ad.wait t)
    | None -> failwith "ladder: admission refused"
  done

(* Admission alone: only the admission calls are timed and their
   allocation counted; each batch is left to settle, untimed, before the
   next, so the inbox never fills.  The first round warms up. *)
let measure_admit_only svc =
  let batch = 256 and rounds = 10 in
  let tickets = Array.make batch None in
  let once () =
    let spent = ref 0 and words = ref 0. in
    for _ = 1 to rounds do
      let w0 = Gc.minor_words () in
      let t0 = Ad.now () in
      for i = 0 to batch - 1 do
        tickets.(i) <- Ad.admit svc ~key:i ~lane:Ad.Bulk ~deadline_s:0. (fun () -> i)
      done;
      spent := !spent + (Ad.now () - t0);
      words := !words +. (Gc.minor_words () -. w0);
      Array.iter
        (function Some t -> ignore (Ad.wait t) | None -> failwith "ladder: admission refused")
        tickets
    done;
    let ops = float_of_int (batch * rounds) in
    (float_of_int !spent /. ops, !words /. ops)
  in
  ignore (once ());
  let runs = Array.init reps (fun _ -> once ()) in
  (Util.median (Array.map fst runs), Util.median (Array.map snd runs))

let run () =
  let row name (ns, words) = [ Util.m (name ^ "_ns") "ns" ns; Util.m (name ^ "_words") "words" words ] in
  let pool = Ad.pool_create ~processes:1 in
  let spawn_row = measure (spawn_force pool) in
  Ad.pool_shutdown pool;
  let svc1 = Util.pinned (fun () -> Ad.service_create ~shards:1 ~processes:1) in
  let serve_row = measure (admit_settle svc1) in
  ignore (Ad.service_drain svc1);
  Ad.service_shutdown svc1;
  let svc2 = Util.pinned (fun () -> Ad.service_create ~shards:2 ~processes:1) in
  let shard_row = measure_admit_only svc2 in
  ignore (Ad.service_drain svc2);
  Ad.service_shutdown svc2;
  List.concat
    [
      row "deque.push_pop" (measure deque_push_pop);
      row "deque.steal" (measure deque_push_steal);
      row "injector.push_pop" (measure injector_push_pop);
      row "fiber.run" (measure fiber_run);
      row "fiber.await_fulfil" (measure await_fulfil);
      row "pool.spawn_force" spawn_row;
      row "serve.admit_settle" serve_row;
      row "shard.admit" shard_row;
    ]
