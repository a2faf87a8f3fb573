(* In-memory span log: name, owning request/iteration id, parent span,
   start and end (monotonic ns).  Spans are recorded around the
   benchmark's calls into each layer, kept in memory, and written out
   once the run is over. *)

type t = {
  mutable n : int;
  mutable name : string array;
  mutable id : int array;
  mutable parent : int array;
  mutable start : int array;
  mutable stop : int array;
}

let create () =
  let cap = 1024 in
  {
    n = 0;
    name = Array.make cap "";
    id = Array.make cap 0;
    parent = Array.make cap (-1);
    start = Array.make cap 0;
    stop = Array.make cap 0;
  }

let grow t =
  let cap = 2 * Array.length t.id in
  let ext a fill = Array.append a (Array.make (cap - Array.length a) fill) in
  t.name <- ext t.name "";
  t.id <- ext t.id 0;
  t.parent <- ext t.parent (-1);
  t.start <- ext t.start 0;
  t.stop <- ext t.stop 0

(* Record a span and return its index, to be passed as a child's
   [parent] ([-1] for a root). *)
let add t ~name ~id ~parent ~start ~stop =
  if t.n = Array.length t.id then grow t;
  let i = t.n in
  t.name.(i) <- name;
  t.id.(i) <- id;
  t.parent.(i) <- parent;
  t.start.(i) <- start;
  t.stop.(i) <- max start stop;
  t.n <- i + 1;
  i

(* Per span name: (count, total self ns), in first-seen order.  Self
   time is a span's duration minus the parts of it its children cover.
   Children are consecutive steps of one request or iteration; where two
   overlap (a body that starts before its admission call has returned)
   the overlap is counted twice, and self time is clamped at 0. *)
let self_times t =
  let covered = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then
      covered.(p) <-
        covered.(p) + max 0 (min t.stop.(i) t.stop.(p) - max t.start.(i) t.start.(p))
  done;
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let self = max 0 (t.stop.(i) - t.start.(i) - covered.(i)) in
    match Hashtbl.find_opt tbl t.name.(i) with
    | Some (c, s) -> Hashtbl.replace tbl t.name.(i) (c + 1, s + self)
    | None ->
        order := t.name.(i) :: !order;
        Hashtbl.replace tbl t.name.(i) (1, self)
  done;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

let roots t =
  let n = ref 0 in
  for i = 0 to t.n - 1 do
    if t.parent.(i) < 0 then incr n
  done;
  !n

let write t path =
  let oc = open_out path in
  output_string oc "span\tname\tid\tparent\tstart_ns\tend_ns\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i t.name.(i) t.id.(i) t.parent.(i) t.start.(i)
      t.stop.(i)
  done;
  close_out oc
