(* Tests of the benchmark's measurement helpers. *)

let check_float = Alcotest.(check (float 0.0))

(* Three units timed over three interleaved passes: each unit reports
   its median rep, whichever passes its reps fell in. A fourth unit never
   completes and has no time to report. *)
let median_of_k () =
  let order = ref [] in
  let reps = Stat.Reps.create 4 in
  let table = [| [| 5.; 3.; 4. |]; [| 2.; 9.; 1. |]; [| 7.; 7.; 6. |] |] in
  let n =
    Stat.passes
      ~continue:(fun done_ -> done_ < 3)
      (fun p ->
        for u = 0 to 2 do
          order := (p, u) :: !order;
          Stat.Reps.add reps u table.(u).(p)
        done)
  in
  Alcotest.(check int) "passes" 3 n;
  Alcotest.(check (list (pair int int)))
    "A B C, A B C, A B C"
    [ (0, 0); (0, 1); (0, 2); (1, 0); (1, 1); (1, 2); (2, 0); (2, 1); (2, 2) ]
    (List.rev !order);
  Alcotest.(check (list int)) "timed units" [ 0; 1; 2 ] (Stat.Reps.timed reps);
  Alcotest.(check (array (float 0.0))) "medians" [| 4.; 2.; 7. |]
    (Stat.Reps.median_all reps);
  check_float "sum of medians" 13.0 (Stat.Reps.sum_median reps);
  check_float "best" 1.0 (Stat.Reps.best reps 1);
  Alcotest.(check (array (float 0.0))) "times keep pass order" [| 2.; 9.; 1. |]
    (Stat.Reps.times reps 1);
  (* (median - best) / best per unit: 1/3, 1, 1/6 -> median 1/3 *)
  Alcotest.(check (float 1e-12)) "rep spread" (1.0 /. 3.0) (Stat.Reps.spread reps)

(* A pass on a host half as fast as nominal: the kernels' median times,
   1 ms and 4 ms, have a geometric mean of 2 ms against a 1 ms nominal,
   so every staged time is halved; nothing reaches the reps until the
   pass commits. *)
let host_factor () =
  let reps = Stat.Reps.create 2 in
  let p = Stat.Pass.create () in
  Stat.Pass.add p reps 0 0.010;
  Stat.Pass.add p reps 1 0.004;
  Stat.Pass.add p reps 0 0.030;
  List.iter (Stat.Pass.add_reference p)
    [ (0.001, 0.009); (0.009, 0.004); (0.0005, 0.001) ];
  Alcotest.(check (list int)) "staged, not added" [] (Stat.Reps.timed reps);
  Alcotest.(check (float 1e-12)) "factor: geometric mean of medians / nominal" 2.0
    (Stat.Pass.commit p ~nominal:0.001);
  Alcotest.(check (array (float 1e-15))) "unit 0 scaled, in order"
    [| 0.005; 0.015 |] (Stat.Reps.times reps 0);
  Alcotest.(check (array (float 1e-15))) "unit 1 scaled" [| 0.002 |]
    (Stat.Reps.times reps 1);
  Alcotest.check_raises "commit empties the pass"
    (Invalid_argument "Stat.Pass.commit: no reference time") (fun () ->
      ignore (Stat.Pass.commit p ~nominal:0.001 : float))

let budget_bounds () =
  let runs = Stat.passes ~continue:(Stat.budget ~min:4 ~max:6 ~seconds:0.0) ignore in
  Alcotest.(check int) "min passes even with no time left" 4 runs;
  let runs =
    Stat.passes ~continue:(Stat.budget ~min:1 ~max:6 ~seconds:1e9) ignore
  in
  Alcotest.(check int) "max passes caps a long budget" 6 runs

let percentile_rule () =
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  Alcotest.(check (option (pair (float 0.0) int)))
    "p50 of 20: 10 beyond" (Some (10.0, 10)) (Stat.percentile ~p:50.0 (xs 20));
  Alcotest.(check (option (pair (float 0.0) int)))
    "p50 of 19: 9 beyond is missing" None (Stat.percentile ~p:50.0 (xs 19));
  Alcotest.(check (option (pair (float 0.0) int)))
    "p95 of 200: 10 beyond" (Some (190.0, 10)) (Stat.percentile ~p:95.0 (xs 200));
  Alcotest.(check (option (pair (float 0.0) int)))
    "p95 of 199: missing" None (Stat.percentile ~p:95.0 (xs 199));
  Alcotest.(check (option (pair (float 0.0) int)))
    "empty: missing" None (Stat.percentile ~p:50.0 [||]);
  check_float "median odd" 2.0 (Stat.median [| 3.; 1.; 2. |]);
  check_float "median even" 2.5 (Stat.median [| 4.; 1.; 2.; 3. |])

let ids = List.init 500 (fun i -> Printf.sprintf "unit/%d" i)

let seed_derivation () =
  let seeds ws = List.map (Stat.unit_seed ws) ids in
  Alcotest.(check (list int)) "same seed, same unit seeds" (seeds 7) (seeds 7);
  List.iter2
    (fun a b -> Alcotest.(check bool) "new seed changes every unit" true (a <> b))
    (seeds 7) (seeds 8);
  List.iter
    (fun s -> Alcotest.(check bool) "positive, below 1e9" true (s > 0 && s < 1_000_000_000))
    (seeds 7);
  Alcotest.(check int) "distinct across units" (List.length ids)
    (List.length (List.sort_uniq compare (seeds 7)));
  let bases = List.init 500 (fun i -> 1 + (i * 7919)) in
  let mixed ws = List.map (Stat.mix_seed ws) bases in
  Alcotest.(check (list int)) "mix: same seed reproduces" (mixed 3) (mixed 3);
  List.iter2
    (fun a b -> Alcotest.(check bool) "mix: new seed changes every unit" true (a <> b))
    (mixed 3) (mixed 4)

let () =
  Alcotest.run "perfbench"
    [
      ( "stat",
        [
          Alcotest.test_case "median-of-k over interleaved passes" `Quick median_of_k;
          Alcotest.test_case "host factor scales a pass" `Quick host_factor;
          Alcotest.test_case "pass budget bounds" `Quick budget_bounds;
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "seed derivation" `Quick seed_derivation;
        ] );
    ]
