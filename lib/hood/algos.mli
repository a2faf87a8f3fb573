(** Parallel algorithms on the Hood runtime, beyond the basic skeletons
    of {!Par}: divide-and-conquer sorting and block-parallel scans.  All
    functions must run inside {!Pool.run}. *)

val merge_sort : ?grain:int -> cmp:('a -> 'a -> int) -> 'a array -> 'a array
(** Stable parallel merge sort: recursive halving with a spawned right
    half (one spawn per internal node of the recursion tree — the fib
    dag shape); subarrays of at most [grain] (default 512) elements are
    sorted sequentially.  Merges of more than a few thousand elements
    are themselves split by binary search and merged in parallel.  Does
    not mutate its input.

    Memory: two [n]-element buffers — the copy of the input that is
    returned and one scratch array; the merge direction alternates
    between them level by level, so no level allocates.  Work
    [O(n log n)]; span [O(log^3 n + grain log grain)] ([O(log^2 n)]
    per parallel merge, over [O(log n)] levels). *)

val scan_inclusive : ?grain:int -> op:('a -> 'a -> 'a) -> 'a array -> 'a array
(** Inclusive prefix scan under an associative [op], by the classic
    three-phase block algorithm: parallel per-block reductions, a serial
    scan over the block sums, and a parallel downsweep.  [grain]
    (default 1024) is the block size.  Work [O(n)], span
    [O(n/grain + grain)]. *)

val filter : ?grain:int -> ('a -> bool) -> 'a array -> 'a array
(** Parallel filter: per-block counting + offsets (via the block scan) +
    parallel scatter.  Preserves order. *)
