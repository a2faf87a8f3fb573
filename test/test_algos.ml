(* Tests for the parallel algorithms on the Hood runtime, against
   sequential oracles, including qcheck over sizes/grains. *)

open Abp_hood
module Rng = Abp_stats.Rng

let with_pool f =
  let pool = Pool.create ~processes:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> Pool.run pool f)

let sort_matches_stdlib () =
  let rng = Rng.create ~seed:71L () in
  let input = Array.init 20_000 (fun _ -> Rng.int rng 1000) in
  let got = with_pool (fun () -> Algos.merge_sort ~grain:128 ~cmp:compare input) in
  let want = Array.copy input in
  Array.stable_sort compare want;
  Alcotest.(check (array int)) "sorted" want got;
  (* input untouched *)
  Alcotest.(check bool) "input preserved" true
    (Array.exists (fun x -> x <> got.(0)) input || Array.length input <= 1)

let sort_is_stable () =
  (* Sort pairs by first component only; second must keep input order. *)
  let input = Array.init 2_000 (fun i -> (i mod 7, i)) in
  let cmp (a, _) (b, _) = compare a b in
  let got = with_pool (fun () -> Algos.merge_sort ~grain:64 ~cmp input) in
  let want = Array.copy input in
  Array.stable_sort cmp want;
  Alcotest.(check bool) "stable" true (got = want)

let sort_edge_cases () =
  Alcotest.(check (array int)) "empty" [||]
    (with_pool (fun () -> Algos.merge_sort ~cmp:compare [||]));
  Alcotest.(check (array int)) "singleton" [| 5 |]
    (with_pool (fun () -> Algos.merge_sort ~cmp:compare [| 5 |]));
  Alcotest.(check (array int)) "tiny grain" [| 1; 2; 3; 4 |]
    (with_pool (fun () -> Algos.merge_sort ~grain:1 ~cmp:compare [| 3; 1; 4; 2 |]))

let scan_matches_sequential () =
  let rng = Rng.create ~seed:72L () in
  let input = Array.init 10_000 (fun _ -> Rng.int rng 100) in
  let got = with_pool (fun () -> Algos.scan_inclusive ~grain:97 ~op:( + ) input) in
  let want = Array.make (Array.length input) 0 in
  let acc = ref 0 in
  Array.iteri
    (fun i x ->
      acc := !acc + x;
      want.(i) <- !acc)
    input;
  Alcotest.(check (array int)) "prefix sums" want got

let scan_non_commutative () =
  (* String concatenation is associative but not commutative: the scan
     must preserve order. *)
  let input = Array.init 100 (fun i -> String.make 1 (Char.chr (65 + (i mod 26)))) in
  let got = with_pool (fun () -> Algos.scan_inclusive ~grain:7 ~op:( ^ ) input) in
  let acc = ref "" in
  let want =
    Array.map
      (fun s ->
        acc := !acc ^ s;
        !acc)
      input
  in
  Alcotest.(check (array string)) "ordered concat" want got

let scan_empty () =
  Alcotest.(check (array int)) "empty" [||]
    (with_pool (fun () -> Algos.scan_inclusive ~op:( + ) [||]))

let filter_matches_sequential () =
  let rng = Rng.create ~seed:73L () in
  let input = Array.init 10_000 (fun _ -> Rng.int rng 1000) in
  let keep x = x mod 3 = 0 in
  let got = with_pool (fun () -> Algos.filter ~grain:61 keep input) in
  let want = Array.of_list (List.filter keep (Array.to_list input)) in
  Alcotest.(check (array int)) "filtered, order kept" want got

let filter_none_and_all () =
  let input = Array.init 100 (fun i -> i) in
  Alcotest.(check (array int)) "none" [||] (with_pool (fun () -> Algos.filter (fun _ -> false) input));
  Alcotest.(check (array int)) "all" input (with_pool (fun () -> Algos.filter (fun _ -> true) input))

(* merge_sort against [Array.stable_sort] on records with heavily
   duplicated keys (so an unstable merge would reorder the [idx]
   field), at the sizes where its structure changes — 0, 1, the
   default grain (512) +-1 and the internal merge cutoff (4096) +-1 —
   and at random small and large (up to 50 000) sizes with the default
   or a tiny grain, on a pool of [procs] workers.  The input must come
   back unmutated. *)
type record = { key : int; idx : int }

let sort_edge_sizes = [ 0; 1; 511; 512; 513; 4095; 4096; 4097 ]

let prop_sort ~procs =
  let pool = Pool.create ~processes:procs () in
  let cmp x y = compare x.key y.key in
  let check (n, grain, seed) =
    let rng = Random.State.make [| seed |] in
    let keys = 1 + Random.State.int rng 8 in
    let input = Array.init n (fun idx -> { key = Random.State.int rng keys; idx }) in
    let before = Array.copy input in
    let got = Pool.run pool (fun () -> Algos.merge_sort ?grain ~cmp input) in
    let want = Array.copy input in
    Array.stable_sort cmp want;
    got = want && input = before
  in
  let prop =
    QCheck2.Test.make
      ~name:(Printf.sprintf "merge_sort matches stdlib on records at P=%d" procs)
      ~count:30
      QCheck2.Gen.(
        triple
          (oneof [ oneofl sort_edge_sizes; int_range 0 500; int_range 0 50_000 ])
          (opt (int_range 1 64))
          (int_bound 1_000_000))
      check
  in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun n ->
          if not (check (n, None, n)) then Alcotest.failf "merge_sort differs at size %d" n)
        sort_edge_sizes;
      QCheck2.Test.check_exn prop)

let prop_scan =
  QCheck2.Test.make ~name:"scan matches sequential fold on random arrays" ~count:25
    QCheck2.Gen.(pair (list_size (int_range 0 500) (int_range (-50) 50)) (int_range 1 64))
    (fun (items, grain) ->
      let input = Array.of_list items in
      let got = with_pool (fun () -> Algos.scan_inclusive ~grain ~op:( + ) input) in
      let acc = ref 0 in
      let want =
        Array.map
          (fun x ->
            acc := !acc + x;
            !acc)
          input
      in
      got = want)

let tests =
  [
    Alcotest.test_case "merge sort vs stdlib" `Quick sort_matches_stdlib;
    Alcotest.test_case "merge sort stable" `Quick sort_is_stable;
    Alcotest.test_case "merge sort edge cases" `Quick sort_edge_cases;
    Alcotest.test_case "scan vs sequential" `Quick scan_matches_sequential;
    Alcotest.test_case "scan non-commutative op" `Quick scan_non_commutative;
    Alcotest.test_case "scan empty" `Quick scan_empty;
    Alcotest.test_case "filter vs sequential" `Quick filter_matches_sequential;
    Alcotest.test_case "filter none/all" `Quick filter_none_and_all;
    Alcotest.test_case "merge_sort matches stdlib on records at P=1" `Quick (fun () ->
        prop_sort ~procs:1);
    Alcotest.test_case "merge_sort matches stdlib on records at P=procs" `Quick (fun () ->
        prop_sort ~procs:(Domain.recommended_domain_count ()));
    QCheck_alcotest.to_alcotest prop_scan;
  ]
