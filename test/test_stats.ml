(* Unit and property tests for the statistics substrate. *)

open Proteus_stats

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------- Descriptive ---------- *)

let test_mean () = check_float "mean" 2.5 (Descriptive.mean [| 1.; 2.; 3.; 4. |])

let test_mean_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Descriptive.mean: empty")
    (fun () -> ignore (Descriptive.mean [||]))

let test_variance () =
  check_float "variance" 1.25 (Descriptive.variance [| 1.; 2.; 3.; 4. |])

let test_stddev_constant () =
  check_float "constant stddev" 0.0 (Descriptive.stddev [| 5.; 5.; 5. |])

let test_percentile_endpoints () =
  let xs = [| 10.; 20.; 30.; 40. |] in
  check_float "p0" 10.0 (Descriptive.percentile xs ~p:0.0);
  check_float "p100" 40.0 (Descriptive.percentile xs ~p:100.0);
  check_float "p50" 25.0 (Descriptive.percentile xs ~p:50.0)

let test_percentile_interpolates () =
  let xs = [| 0.; 10. |] in
  check_float "p25" 2.5 (Descriptive.percentile xs ~p:25.0)

let test_percentile_unsorted_input () =
  let xs = [| 30.; 10.; 20. |] in
  check_float "median of unsorted" 20.0 (Descriptive.median xs);
  (* input must not be mutated *)
  Alcotest.(check (list (float 0.0)))
    "input untouched" [ 30.; 10.; 20. ] (Array.to_list xs)

let test_jain_equal () =
  check_float "jain equal" 1.0 (Descriptive.jain_index [| 3.; 3.; 3.; 3. |])

let test_jain_one_hog () =
  check_float "jain hog" 0.25 (Descriptive.jain_index [| 8.; 0.; 0.; 0. |])

let test_cdf_points () =
  match Descriptive.cdf_points [| 2.; 1. |] with
  | [ (1.0, 0.5); (2.0, 1.0) ] -> ()
  | other ->
      Alcotest.failf "unexpected cdf: %s"
        (String.concat ";"
           (List.map (fun (a, b) -> Printf.sprintf "(%g,%g)" a b) other))

let test_normalize () =
  Alcotest.(check (list (float 1e-9)))
    "normalize" [ 0.5; 1.0 ]
    (Array.to_list (Descriptive.normalize [| 2.; 4. |]))

(* ---------- Regression ---------- *)

let test_regression_exact_line () =
  let x = [| 0.; 1.; 2.; 3. |] in
  let y = Array.map (fun v -> (2.0 *. v) +. 1.0) x in
  let fit = Regression.fit ~x ~y in
  check_float "slope" 2.0 fit.Regression.slope;
  check_float "intercept" 1.0 fit.Regression.intercept;
  check_float "residual" 0.0 fit.Regression.residual_rms

let test_regression_flat () =
  let fit = Regression.fit ~x:[| 1.; 2.; 3. |] ~y:[| 7.; 7.; 7. |] in
  check_float "flat slope" 0.0 fit.Regression.slope

let test_regression_degenerate_x () =
  let fit = Regression.fit ~x:[| 5.; 5. |] ~y:[| 1.; 3. |] in
  check_float "degenerate slope" 0.0 fit.Regression.slope

let test_slope_of_indexed () =
  check_float "indexed slope" 3.0 (Regression.slope_of_indexed [| 3.; 6.; 9. |] ~len:3)

(* ---------- Welford ---------- *)

let test_welford_matches_descriptive () =
  let xs = [| 1.5; -2.0; 4.25; 0.0; 10.0; 3.5 |] in
  let w = Welford.create () in
  Array.iter (Welford.add w) xs;
  check_float ~eps:1e-9 "welford mean" (Descriptive.mean xs) (Welford.mean w);
  check_float ~eps:1e-9 "welford var" (Descriptive.variance xs)
    (Welford.variance w);
  check_float "welford min" (-2.0) (Welford.min w);
  check_float "welford max" 10.0 (Welford.max w);
  Alcotest.(check int) "welford n" 6 (Welford.n w)

(* ---------- Ewma ---------- *)

let test_ewma_first_sample () =
  let e = Ewma.create ~alpha:0.5 in
  Ewma.update e 10.0;
  check_float "first" 10.0 (Ewma.value_exn e)

let test_ewma_blend () =
  let e = Ewma.create ~alpha:0.25 in
  Ewma.update e 8.0;
  Ewma.update e 4.0;
  check_float "blend" 7.0 (Ewma.value_exn e)

let test_mean_dev () =
  let md = Ewma.Mean_dev.create ~alpha:0.5 ~beta:0.5 () in
  Ewma.Mean_dev.update md 10.0;
  Alcotest.(check bool)
    "no dev yet" true
    (Float.is_nan (Ewma.Mean_dev.deviation_nan md));
  Ewma.Mean_dev.update md 14.0;
  (* dev sample = |14 - 10| = 4, first dev sample initializes *)
  check_float "dev" 4.0 (Ewma.Mean_dev.deviation_nan md);
  check_float "mean" 12.0 (Ewma.Mean_dev.mean_nan md)

(* ---------- Histogram ---------- *)

let test_histogram_pdf_sums_to_one () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Histogram.add h) [ 0.5; 1.5; 2.5; 9.0; 100.0; -3.0 ];
  let total = Array.fold_left (fun acc (_, p) -> acc +. p) 0.0 (Histogram.pdf h) in
  check_float ~eps:1e-9 "pdf sums" 1.0 total;
  Alcotest.(check int) "count" 6 (Histogram.count h)

let test_histogram_clamps () =
  let h = Histogram.create ~lo:0.0 ~hi:1.0 ~bins:2 in
  Histogram.add h (-5.0);
  Histogram.add h 5.0;
  check_float "low bin" 0.5 (Histogram.bin_fraction h 0.25);
  check_float "high bin" 0.5 (Histogram.bin_fraction h 0.75)

(* ---------- Winfilter ---------- *)

let test_winfilter_min_basic () =
  let f = Winfilter.create_min ~window:10.0 in
  Winfilter.update f ~now:0.0 5.0;
  Winfilter.update f ~now:1.0 3.0;
  Winfilter.update f ~now:2.0 4.0;
  check_float "min" 3.0 (Winfilter.get_exn f)

let test_winfilter_expiry () =
  let f = Winfilter.create_min ~window:5.0 in
  Winfilter.update f ~now:0.0 1.0;
  Winfilter.update f ~now:10.0 7.0;
  check_float "expired" 7.0 (Winfilter.get_exn f)

let test_winfilter_max () =
  let f = Winfilter.create_max ~window:10.0 in
  Winfilter.update f ~now:0.0 5.0;
  Winfilter.update f ~now:1.0 9.0;
  Winfilter.update f ~now:2.0 2.0;
  check_float "max" 9.0 (Winfilter.get_exn f)

(* ---------- Confusion ---------- *)

let test_confusion_separated () =
  let idle = [| 1.; 2.; 3. |] and congested = [| 10.; 20. |] in
  check_float "separated" 0.0 (Confusion.probability_exact ~idle ~congested)

let test_confusion_inverted () =
  let idle = [| 10.; 20. |] and congested = [| 1.; 2. |] in
  check_float "inverted" 1.0 (Confusion.probability_exact ~idle ~congested)

let test_confusion_identical () =
  let xs = [| 4.; 4.; 4. |] in
  check_float "identical = ties" 0.5
    (Confusion.probability_exact ~idle:xs ~congested:xs)

let test_confusion_monte_carlo_close () =
  let rng = Rng.create ~seed:11 in
  let idle = Array.init 100 (fun i -> float_of_int i) in
  let congested = Array.init 100 (fun i -> float_of_int i +. 50.0) in
  let exact = Confusion.probability_exact ~idle ~congested in
  let mc = Confusion.probability rng ~idle ~congested ~pairs:20000 in
  if Float.abs (exact -. mc) > 0.02 then
    Alcotest.failf "MC %.4f far from exact %.4f" mc exact

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:3 and b = Rng.create ~seed:3 in
  for _ = 1 to 10 do
    check_float "same stream" (Rng.float a 1.0) (Rng.float b 1.0)
  done

let test_rng_split_independent_of_parent_draws () =
  let a = Rng.create ~seed:3 in
  ignore (Rng.float a 1.0);
  let child1 = Rng.split a in
  let b = Rng.create ~seed:3 in
  let child2 = Rng.split b in
  check_float "split stable" (Rng.float child1 1.0) (Rng.float child2 1.0)

let test_bernoulli_extremes () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 100 do
    if Rng.bernoulli rng ~p:0.0 then Alcotest.fail "p=0 fired";
    if not (Rng.bernoulli rng ~p:1.0) then Alcotest.fail "p=1 missed"
  done

(* ---------- Properties ---------- *)

(* The oracle for lazily seeded streams: every stream eagerly built as
   [Random.State.make [| seed |]], children derived from the parent's
   seed and split counter as [Rng.split] and [Rng.split_at] document,
   and each draw kind's formula applied to the state directly. *)
type rng_model = { st : Random.State.t; m_seed : int; mutable m_splits : int }

let rng_model seed =
  { st = Random.State.make [| seed |]; m_seed = seed; m_splits = 0 }

let model_split m =
  m.m_splits <- m.m_splits + 1;
  rng_model ((m.m_seed * 1_000_003) + (m.m_splits * 7919) + 17)

let model_split_at m ~key =
  rng_model ((m.m_seed * 999_983) + (key * 6_700_417) + 29)

(* Draw kind [k] from the stream and from its model, as float bits. *)
let rng_draw_pair k r m =
  let u () = 1.0 -. Random.State.float m.st 1.0 in
  let drawn, expected =
    match k with
    | 0 -> (Rng.float r 3.5, Random.State.float m.st 3.5)
    | 1 ->
        ( float_of_int (Rng.int r 1000),
          float_of_int (Random.State.int m.st 1000) )
    | 2 -> (Bool.to_float (Rng.bool r), Bool.to_float (Random.State.bool m.st))
    | 3 ->
        ( Bool.to_float (Rng.bernoulli r ~p:0.3),
          Bool.to_float (Random.State.float m.st 1.0 < 0.3) )
    | 4 ->
        (* p = 0 draws nothing, on either side. *)
        (Bool.to_float (Rng.bernoulli r ~p:0.0), 0.0)
    | 5 ->
        (Rng.uniform r ~lo:(-2.0) ~hi:5.0, -2.0 +. Random.State.float m.st 7.0)
    | 6 -> (Rng.exponential r ~mean:0.4, -0.4 *. log (u ()))
    | 7 ->
        let drawn = Rng.gaussian r ~mu:1.0 ~sigma:0.5 in
        let u1 = u () in
        let u2 = Random.State.float m.st 1.0 in
        ( drawn,
          1.0 +. (0.5 *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)) )
    | _ -> (Rng.pareto r ~shape:1.5 ~scale:2.0, 2.0 /. (u () ** (1.0 /. 1.5)))
  in
  (Int64.bits_of_float drawn, Int64.bits_of_float expected)

type rng_op = Draw of int * int | Split of int | Split_at of int * int

let rng_op_to_string = function
  | Draw (s, k) -> Printf.sprintf "draw%d@%d" k s
  | Split s -> Printf.sprintf "split@%d" s
  | Split_at (s, key) -> Printf.sprintf "split_at%d@%d" key s

let rng_case =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (6, map2 (fun s k -> Draw (s, k)) small_nat (int_range 0 8));
        (2, map (fun s -> Split s) small_nat);
        (1, map2 (fun s key -> Split_at (s, key)) small_nat (int_range 0 50));
      ]
  in
  pair (int_range 0 1_000_000) (list_size (int_range 1 80) op)

(* Streams are addressed modulo the number derived so far, so every op
   lands on a live stream. *)
let prop_rng_lazy_matches_eager =
  QCheck.Test.make
    ~name:"a lazily seeded stream draws what Random.State.make does"
    ~count:300
    (QCheck.make
       ~print:(fun (seed, ops) ->
         Printf.sprintf "seed=%d [%s]" seed
           (String.concat "; " (List.map rng_op_to_string ops)))
       rng_case)
    (fun (seed, ops) ->
      let streams = ref [| (Rng.create ~seed, rng_model seed) |] in
      let pick s = !streams.(s mod Array.length !streams) in
      let add child = streams := Array.append !streams [| child |] in
      List.for_all
        (fun op ->
          match op with
          | Draw (s, k) ->
              let r, m = pick s in
              let drawn, expected = rng_draw_pair k r m in
              Int64.equal drawn expected
          | Split s ->
              let r, m = pick s in
              add (Rng.split r, model_split m);
              true
          | Split_at (s, key) ->
              let r, m = pick s in
              add (Rng.split_at r ~key, model_split_at m ~key);
              true)
        ops)

let nonempty_floats =
  QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0))

let prop_percentile_within_range =
  QCheck.Test.make ~name:"percentile lies within [min,max]" ~count:200
    nonempty_floats (fun xs ->
      let arr = Array.of_list xs in
      let lo, hi = Descriptive.min_max arr in
      let p = Descriptive.percentile arr ~p:73.0 in
      p >= lo -. 1e-9 && p <= hi +. 1e-9)

(* The sort-based percentile, kept verbatim as the oracle for the
   selection-based one. *)
let percentile_by_sort xs ~p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Descriptive.percentile: p";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

(* Samples drawn from a small pool (many ties) plus ±inf and NaN, with
   lengths down to 1 and 2; p at both ends or anywhere in between.
   Zeros are all [0.0]: which of [-0.0]/[0.0] a tie yields is
   unspecified for both implementations. *)
let percentile_case =
  let open QCheck.Gen in
  let sample =
    frequency
      [
        (6, map float_of_int (int_range 0 6));
        (3, float_bound_exclusive 100.0);
        (1, oneofl [ Float.infinity; Float.neg_infinity; Float.nan; -3.5 ]);
      ]
  in
  let len = frequency [ (1, return 1); (1, return 2); (4, int_range 3 60) ] in
  let p =
    frequency
      [ (1, return 0.0); (1, return 100.0); (4, float_range 0.0 100.0) ]
  in
  pair (array_size len sample) p

let prop_percentile_matches_sort =
  QCheck.Test.make ~name:"percentile equals the sort oracle bit for bit"
    ~count:2000
    (QCheck.make
       ~print:(fun (xs, p) ->
         Printf.sprintf "p=%h xs=[%s]" p
           (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") xs))))
       percentile_case)
    (fun (xs, p) ->
      let before = Array.copy xs in
      let got = Descriptive.percentile xs ~p in
      Int64.equal (Int64.bits_of_float got)
        (Int64.bits_of_float (percentile_by_sort xs ~p))
      && Array.for_all2
           (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
           before xs)

let prop_jain_bounds =
  QCheck.Test.make ~name:"jain index within [1/n, 1]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (float_bound_exclusive 100.0))
    (fun xs ->
      let arr = Array.of_list (List.map Float.abs xs) in
      let j = Descriptive.jain_index arr in
      let n = float_of_int (Array.length arr) in
      j >= (1.0 /. n) -. 1e-9 && j <= 1.0 +. 1e-9)

let prop_welford_matches =
  QCheck.Test.make ~name:"welford mean/var match two-pass" ~count:200
    nonempty_floats (fun xs ->
      let arr = Array.of_list xs in
      let w = Welford.create () in
      Array.iter (Welford.add w) arr;
      feq ~eps:1e-6 (Welford.mean w) (Descriptive.mean arr)
      && feq ~eps:1e-5 (Welford.variance w) (Descriptive.variance arr))

let prop_winfilter_matches_naive =
  QCheck.Test.make ~name:"windowed min matches naive recompute" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (float_bound_exclusive 100.0))
    (fun xs ->
      let f = Winfilter.create_min ~window:5.0 in
      let samples = List.mapi (fun i x -> (float_of_int i *. 1.0, x)) xs in
      List.for_all
        (fun (now, x) ->
          Winfilter.update f ~now x;
          let naive =
            samples
            |> List.filter (fun (time, _) -> time >= now -. 5.0 && time <= now)
            |> List.map snd
            |> List.fold_left Float.min infinity
          in
          feq (Winfilter.get_exn f) naive)
        samples)

let prop_regression_recovers_slope =
  QCheck.Test.make ~name:"regression recovers noiseless slope" ~count:200
    QCheck.(pair (float_range (-10.0) 10.0) (float_range (-5.0) 5.0))
    (fun (slope, intercept) ->
      let x = Array.init 10 float_of_int in
      let y = Array.map (fun v -> (slope *. v) +. intercept) x in
      let fit = Regression.fit ~x ~y in
      feq ~eps:1e-6 fit.Regression.slope slope
      && fit.Regression.residual_rms < 1e-6)

let prop_cdf_monotone =
  QCheck.Test.make ~name:"cdf is monotone and ends at 1" ~count:200
    nonempty_floats (fun xs ->
      let pts = Descriptive.cdf_points (Array.of_list xs) in
      let rec mono = function
        | (v1, f1) :: ((v2, f2) :: _ as rest) ->
            v1 <= v2 && f1 <= f2 && mono rest
        | _ -> true
      in
      mono pts
      && match List.rev pts with (_, f) :: _ -> feq f 1.0 | [] -> false)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ("mean", `Quick, test_mean);
    ("mean empty", `Quick, test_mean_empty);
    ("variance", `Quick, test_variance);
    ("stddev constant", `Quick, test_stddev_constant);
    ("percentile endpoints", `Quick, test_percentile_endpoints);
    ("percentile interpolation", `Quick, test_percentile_interpolates);
    ("percentile unsorted", `Quick, test_percentile_unsorted_input);
    ("jain equal", `Quick, test_jain_equal);
    ("jain hog", `Quick, test_jain_one_hog);
    ("cdf points", `Quick, test_cdf_points);
    ("normalize", `Quick, test_normalize);
    ("regression exact line", `Quick, test_regression_exact_line);
    ("regression flat", `Quick, test_regression_flat);
    ("regression degenerate", `Quick, test_regression_degenerate_x);
    ("slope of indexed", `Quick, test_slope_of_indexed);
    ("welford vs two-pass", `Quick, test_welford_matches_descriptive);
    ("ewma first", `Quick, test_ewma_first_sample);
    ("ewma blend", `Quick, test_ewma_blend);
    ("mean-dev tracker", `Quick, test_mean_dev);
    ("histogram pdf", `Quick, test_histogram_pdf_sums_to_one);
    ("histogram clamp", `Quick, test_histogram_clamps);
    ("winfilter min", `Quick, test_winfilter_min_basic);
    ("winfilter expiry", `Quick, test_winfilter_expiry);
    ("winfilter max", `Quick, test_winfilter_max);
    ("confusion separated", `Quick, test_confusion_separated);
    ("confusion inverted", `Quick, test_confusion_inverted);
    ("confusion ties", `Quick, test_confusion_identical);
    ("confusion monte-carlo", `Quick, test_confusion_monte_carlo_close);
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng split stability", `Quick, test_rng_split_independent_of_parent_draws);
    ("bernoulli extremes", `Quick, test_bernoulli_extremes);
  ]
  @ qcheck
      [
        prop_percentile_within_range;
        prop_percentile_matches_sort;
        prop_jain_bounds;
        prop_welford_matches;
        prop_winfilter_matches_naive;
        prop_regression_recovers_slope;
        prop_cdf_monotone;
        prop_rng_lazy_matches_eager;
      ]
