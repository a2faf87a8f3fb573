(* Merge sort over two buffers: [a], a copy of the input that becomes
   the result, and one scratch array [b] of the same length.  A
   subproblem always finds its elements in [a]; asked to leave them
   sorted in [dst], it sorts both halves into the other buffer and
   merges them back, so the direction alternates level by level and no
   level allocates.  Subproblems of at most [grain] elements recurse
   sequentially, down to insertion sort. *)

(* Ranges this short are insertion-sorted. *)
let insertion_cutoff = 16

(* Merges of at most this many elements run sequentially; larger ones
   are split in two by a binary search and the halves merged in
   parallel. *)
let merge_cutoff = 4096

(* The two loops below are the sort's whole sequential cost, so they
   skip bounds checks: every index stays inside a range [merge_sort]
   checked against the two equal-length buffers. *)

(* Stable insertion sort of src.(lo..hi-1) into dst.(lo..hi-1); [src]
   may be [dst]. *)
let insertion_sort ~cmp src dst lo hi =
  for i = lo to hi - 1 do
    let x = Array.unsafe_get src i in
    let j = ref i in
    while !j > lo && cmp (Array.unsafe_get dst (!j - 1)) x > 0 do
      Array.unsafe_set dst !j (Array.unsafe_get dst (!j - 1));
      decr j
    done;
    Array.unsafe_set dst !j x
  done

(* Stable sequential merge of the sorted runs src.(l1..h1-1) and
   src.(l2..h2-1) into dst from index [k]; on ties the first run's
   element goes first. *)
let merge_seq ~cmp src l1 h1 l2 h2 dst k =
  let i = ref l1 and j = ref l2 and k = ref k in
  while !i < h1 && !j < h2 do
    let x = Array.unsafe_get src !i and y = Array.unsafe_get src !j in
    if cmp x y <= 0 then begin
      Array.unsafe_set dst !k x;
      incr i
    end
    else begin
      Array.unsafe_set dst !k y;
      incr j
    end;
    incr k
  done;
  Array.blit src !i dst !k (h1 - !i);
  Array.blit src !j dst (!k + h1 - !i) (h2 - !j)

(* The first index in [lo, hi) whose element is not before [x] in the
   merged order: with [strict], the first element [> x]; otherwise the
   first [>= x]. *)
let search ~cmp ~strict src lo hi x =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    let c = cmp src.(mid) x in
    if c < 0 || (strict && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

(* Parallel stable merge: split the longer run at its midpoint, find
   the matching cut in the other run, and merge the two halves
   independently.  A first-run pivot cuts the second run before its
   equal elements, a second-run pivot cuts the first run after them, so
   equal keys keep first-run-first order across the cut. *)
let rec merge ~cmp src l1 h1 l2 h2 dst k =
  let n1 = h1 - l1 and n2 = h2 - l2 in
  if n1 + n2 <= merge_cutoff then merge_seq ~cmp src l1 h1 l2 h2 dst k
  else begin
    let m1, m2 =
      if n1 >= n2 then
        let m1 = l1 + (n1 / 2) in
        (m1, search ~cmp ~strict:false src l2 h2 src.(m1))
      else
        let m2 = l2 + (n2 / 2) in
        (search ~cmp ~strict:true src l1 h1 src.(m2), m2)
    in
    let right =
      Future.spawn (fun () -> merge ~cmp src m1 h1 m2 h2 dst (k + (m1 - l1) + (m2 - l2)))
    in
    merge ~cmp src l1 m1 l2 m2 dst k;
    Future.force right
  end

let merge_sort ?(grain = 512) ~cmp a =
  if grain < 1 then invalid_arg "Algos.merge_sort: grain >= 1 required";
  let n = Array.length a in
  if n <= 1 then Array.copy a
  else begin
    let a = Array.copy a in
    let b = Array.make n a.(0) in
    (* Sort a.(lo..hi-1) into [b] when [to_b], else in place in [a]. *)
    let rec sort lo hi to_b =
      let n = hi - lo in
      if n <= insertion_cutoff then insertion_sort ~cmp a (if to_b then b else a) lo hi
      else begin
        let mid = lo + (n / 2) in
        let src, dst = if to_b then (a, b) else (b, a) in
        if n <= grain then begin
          sort lo mid (not to_b);
          sort mid hi (not to_b);
          merge_seq ~cmp src lo mid mid hi dst lo
        end
        else begin
          let right = Future.spawn (fun () -> sort mid hi (not to_b)) in
          sort lo mid (not to_b);
          Future.force right;
          merge ~cmp src lo mid mid hi dst lo
        end
      end
    in
    sort 0 n false;
    a
  end

let scan_inclusive ?(grain = 1024) ~op a =
  if grain < 1 then invalid_arg "Algos.scan_inclusive: grain >= 1 required";
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let blocks = (n + grain - 1) / grain in
    let out = Array.make n a.(0) in
    (* Phase 1: per-block inclusive scans (independent, parallel). *)
    Par.parallel_for ~grain:1 ~lo:0 ~hi:blocks (fun b ->
        let lo = b * grain and hi = min n ((b + 1) * grain) in
        let acc = ref a.(lo) in
        out.(lo) <- !acc;
        for i = lo + 1 to hi - 1 do
          acc := op !acc a.(i);
          out.(i) <- !acc
        done);
    (* Phase 2: serial exclusive scan over block totals. *)
    let offsets = Array.make blocks None in
    let running = ref None in
    for b = 0 to blocks - 1 do
      offsets.(b) <- !running;
      let hi = min n ((b + 1) * grain) in
      let total = out.(hi - 1) in
      running := Some (match !running with None -> total | Some r -> op r total)
    done;
    (* Phase 3: parallel downsweep adds each block's prefix offset. *)
    Par.parallel_for ~grain:1 ~lo:0 ~hi:blocks (fun b ->
        match offsets.(b) with
        | None -> ()
        | Some off ->
            let lo = b * grain and hi = min n ((b + 1) * grain) in
            for i = lo to hi - 1 do
              out.(i) <- op off out.(i)
            done);
    out
  end

let filter ?(grain = 1024) keep a =
  if grain < 1 then invalid_arg "Algos.filter: grain >= 1 required";
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let blocks = (n + grain - 1) / grain in
    let counts = Array.make blocks 0 in
    Par.parallel_for ~grain:1 ~lo:0 ~hi:blocks (fun b ->
        let lo = b * grain and hi = min n ((b + 1) * grain) in
        let c = ref 0 in
        for i = lo to hi - 1 do
          if keep a.(i) then incr c
        done;
        counts.(b) <- !c);
    let offsets = Array.make blocks 0 in
    let total = ref 0 in
    for b = 0 to blocks - 1 do
      offsets.(b) <- !total;
      total := !total + counts.(b)
    done;
    if !total = 0 then [||]
    else begin
      let out = Array.make !total a.(0) in
      Par.parallel_for ~grain:1 ~lo:0 ~hi:blocks (fun b ->
          let lo = b * grain and hi = min n ((b + 1) * grain) in
          let cursor = ref offsets.(b) in
          for i = lo to hi - 1 do
            if keep a.(i) then begin
              out.(!cursor) <- a.(i);
              incr cursor
            end
          done);
      out
    end
  end
