(* Tests for the Proteus core: monitor intervals, utility functions,
   noise tolerance, and the rate controller end to end. *)

open Proteus
module Net = Proteus_net

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------- Mi ---------- *)

let close mi ~end_time = Mi.close mi ~times:[| 0.0; 0.0; end_time |]

let ack ?(accepted = true) mi ~send_time ~rtt =
  Mi.record_ack_m mi ~meta:[| 0.0; send_time; rtt |] ~accepted

let complete_mi ?(rate = 125_000.0) ~rtts () =
  (* Build an MI spanning 1 s with one packet per rtt sample. *)
  let mi = Mi.create ~id:0 ~target_rate:rate ~start_time:0.0 in
  List.iteri (fun i _ -> ignore i; Mi.record_sent mi ~size:1500) rtts;
  List.iteri
    (fun i rtt ->
      ack mi ~send_time:(float_of_int i *. 0.1) ~rtt)
    rtts;
  close mi ~end_time:1.0;
  mi

let test_mi_lifecycle () =
  let mi = Mi.create ~id:3 ~target_rate:1000.0 ~start_time:0.0 in
  Alcotest.(check bool) "not closed" false (Mi.is_closed mi);
  Mi.record_sent mi ~size:1500;
  close mi ~end_time:1.0;
  Alcotest.(check bool) "closed" true (Mi.is_closed mi);
  Alcotest.(check bool) "not complete" false (Mi.is_complete mi);
  ack mi ~send_time:0.0 ~rtt:0.02;
  Alcotest.(check bool) "complete" true (Mi.is_complete mi)

let test_mi_metrics_requires_complete () =
  let mi = Mi.create ~id:0 ~target_rate:1000.0 ~start_time:0.0 in
  Mi.record_sent mi ~size:1500;
  Alcotest.check_raises "incomplete"
    (Invalid_argument "Mi.metrics: MI not complete") (fun () ->
      ignore (Mi.metrics mi))

let test_mi_gradient_of_linear_rtts () =
  (* RTT rises 1 ms per 100 ms of send time: gradient 0.01 s/s. *)
  let rtts = List.init 10 (fun i -> 0.02 +. (0.001 *. float_of_int i)) in
  let m = Mi.metrics (complete_mi ~rtts ()) in
  check_float ~eps:1e-9 "gradient" 0.01 m.Mi.rtt_gradient;
  check_float ~eps:1e-9 "regression error ~0" 0.0 m.Mi.regression_error

let test_mi_deviation_of_constant_rtts () =
  let m = Mi.metrics (complete_mi ~rtts:(List.init 10 (fun _ -> 0.05)) ()) in
  check_float "no deviation" 0.0 m.Mi.rtt_deviation;
  check_float "no gradient" 0.0 m.Mi.rtt_gradient;
  check_float "avg" 0.05 m.Mi.avg_rtt

let test_mi_deviation_of_alternating_rtts () =
  (* Alternating +-5 ms around 50 ms: deviation 5 ms, gradient ~0. *)
  let rtts = List.init 10 (fun i -> if i mod 2 = 0 then 0.045 else 0.055) in
  let m = Mi.metrics (complete_mi ~rtts ()) in
  check_float ~eps:1e-9 "deviation" 0.005 m.Mi.rtt_deviation;
  if Float.abs m.Mi.rtt_gradient > 0.005 then
    Alcotest.failf "gradient should be small: %g" m.Mi.rtt_gradient

let test_mi_loss_rate () =
  let mi = Mi.create ~id:0 ~target_rate:125_000.0 ~start_time:0.0 in
  for _ = 1 to 10 do
    Mi.record_sent mi ~size:1500
  done;
  for i = 1 to 8 do
    ack mi ~send_time:(float_of_int i *. 0.01) ~rtt:0.02
  done;
  Mi.record_loss mi;
  Mi.record_loss mi;
  close mi ~end_time:0.5;
  let m = Mi.metrics mi in
  check_float "loss rate" 0.2 m.Mi.loss_rate

let test_mi_filtered_sample_counts_for_completion () =
  let mi = Mi.create ~id:0 ~target_rate:125_000.0 ~start_time:0.0 in
  Mi.record_sent mi ~size:1500;
  close mi ~end_time:0.5;
  ack mi ~accepted:false ~send_time:0.0 ~rtt:0.02;
  Alcotest.(check bool) "complete with filtered rtt" true (Mi.is_complete mi);
  let m = Mi.metrics mi in
  check_float "no samples, no mean" 0.0 m.Mi.avg_rtt

let test_mi_send_rate () =
  let m = Mi.metrics (complete_mi ~rtts:(List.init 10 (fun _ -> 0.02)) ()) in
  (* 10 packets * 1500 B over 1 s = 0.12 Mbps *)
  check_float ~eps:1e-9 "send rate" 0.12 m.Mi.send_rate_mbps

(* ---------- Utility ---------- *)

let metrics ?(rate = 10.0) ?(loss = 0.0) ?(gradient = 0.0) ?(deviation = 0.0)
    () =
  {
    Mi.send_rate_mbps = rate;
    target_rate_mbps = rate;
    loss_rate = loss;
    avg_rtt = 0.05;
    rtt_gradient = gradient;
    rtt_deviation = deviation;
    regression_error = 0.0;
    duration = 0.05;
  }

let test_utility_p_clean () =
  let u = Utility.proteus_p () in
  check_float ~eps:1e-9 "x^0.9" (10.0 ** 0.9)
    (Utility.eval u (metrics ~rate:10.0 ()))

let test_utility_p_ignores_negative_gradient () =
  let u = Utility.proteus_p () in
  check_float "negative gradient ignored"
    (Utility.eval u (metrics ()))
    (Utility.eval u (metrics ~gradient:(-0.5) ()))

let test_utility_vivace_rewards_negative_gradient () =
  let u = Utility.vivace () in
  let clean = Utility.eval u (metrics ()) in
  let draining = Utility.eval u (metrics ~gradient:(-0.01) ()) in
  if draining <= clean then
    Alcotest.fail "vivace should reward queue draining"

let test_utility_p_penalizes_loss () =
  let u = Utility.proteus_p () in
  let clean = Utility.eval u (metrics ()) in
  let lossy = Utility.eval u (metrics ~loss:0.1 ()) in
  check_float ~eps:1e-9 "loss penalty" (11.35 *. 10.0 *. 0.1) (clean -. lossy)

let test_utility_s_deviation_penalty () =
  let us = Utility.proteus_s () in
  let up = Utility.proteus_p () in
  let m = metrics ~deviation:0.002 () in
  check_float ~eps:1e-9 "d*x*sigma" (1500.0 *. 10.0 *. 0.002)
    (Utility.eval up m -. Utility.eval us m)

let test_utility_s_loss_tolerance_threshold () =
  (* With c = 11.35 and t = 0.9, utility stays increasing in rate up to
     ~5% random loss; at much higher loss it decreases. *)
  let u = Utility.proteus_s () in
  let at rate loss = Utility.eval u (metrics ~rate ~loss ()) in
  if at 10.0 0.04 <= at 5.0 0.04 then
    Alcotest.fail "should still prefer higher rate at 4% loss";
  if at 10.0 0.3 >= at 5.0 0.3 then
    Alcotest.fail "should prefer lower rate at 30% loss"

let test_utility_h_switches_at_threshold () =
  let threshold = ref 8.0 in
  let uh = Utility.proteus_h ~threshold_mbps:threshold () in
  let up = Utility.proteus_p () in
  let us = Utility.proteus_s () in
  let m_low = metrics ~rate:5.0 ~deviation:0.002 () in
  let m_high = metrics ~rate:12.0 ~deviation:0.002 () in
  check_float "below threshold = P" (Utility.eval up m_low)
    (Utility.eval uh m_low);
  check_float "above threshold = S" (Utility.eval us m_high)
    (Utility.eval uh m_high);
  (* The ref is read dynamically. *)
  threshold := 20.0;
  check_float "raised threshold = P again" (Utility.eval up m_high)
    (Utility.eval uh m_high)

let test_utility_concavity_in_rate () =
  (* The rate term x^0.9 is strictly concave; with linear penalties the
     whole utility is concave in rate. Check the discrete second
     difference is negative across a range. *)
  let u = Utility.proteus_s () in
  let f x = Utility.eval u (metrics ~rate:x ~deviation:0.001 ()) in
  List.iter
    (fun x ->
      let d2 = f (x +. 2.0) -. (2.0 *. f (x +. 1.0)) +. f x in
      if d2 >= 0.0 then Alcotest.failf "not concave at %.1f" x)
    [ 1.0; 5.0; 20.0; 100.0 ]

let test_utility_custom () =
  let u = Utility.make ~name:"const" (fun _ -> 42.0) in
  Alcotest.(check string) "name" "const" (Utility.name u);
  check_float "eval" 42.0 (Utility.eval u (metrics ()))

(* ---------- Ack_filter ---------- *)

let test_ack_filter_passes_regular_stream () =
  let f = Ack_filter.create () in
  for i = 0 to 99 do
    match Ack_filter.filter f ~now:(float_of_int i *. 0.01) ~rtt:0.02 with
    | Some _ -> ()
    | None -> Alcotest.fail "regular stream filtered"
  done

let test_ack_filter_drops_after_interval_spike () =
  let f = Ack_filter.create () in
  ignore (Ack_filter.filter f ~now:0.000 ~rtt:0.020);
  ignore (Ack_filter.filter f ~now:0.001 ~rtt:0.020);
  (* 1 ms intervals, then a 300 ms gap: ratio 300 > 50. *)
  (match Ack_filter.filter f ~now:0.301 ~rtt:0.30 with
  | None -> ()
  | Some _ -> Alcotest.fail "spike sample not filtered");
  Alcotest.(check bool) "filtering" true (Ack_filter.is_filtering f);
  (* High RTTs stay filtered... *)
  (match Ack_filter.filter f ~now:0.302 ~rtt:0.25 with
  | None -> ()
  | Some _ -> Alcotest.fail "still-high sample not filtered");
  (* ...until a sample below the moving average. *)
  match Ack_filter.filter f ~now:0.303 ~rtt:0.018 with
  | Some _ -> Alcotest.(check bool) "recovered" false (Ack_filter.is_filtering f)
  | None -> Alcotest.fail "recovery sample filtered"

let test_ack_filter_burst_after_gap () =
  (* ACK compression produces tiny intervals right after a gap; the
     ratio test must catch that direction too. *)
  let f = Ack_filter.create () in
  ignore (Ack_filter.filter f ~now:0.00 ~rtt:0.020);
  ignore (Ack_filter.filter f ~now:0.10 ~rtt:0.020);
  (* interval 100 ms then 0.1 ms: ratio 1000 *)
  match Ack_filter.filter f ~now:0.1001 ~rtt:0.12 with
  | None -> ()
  | Some _ -> Alcotest.fail "compressed burst not filtered"

(* ---------- Tolerance ---------- *)

let test_tolerance_zeroes_noise_gradient () =
  let t = Tolerance.create Tolerance.proteus_default in
  let m =
    { (metrics ~gradient:0.001 ~deviation:0.003 ()) with
      Mi.regression_error = 0.01 }
  in
  Tolerance.adjust t m;
  let adj = m in
  check_float "gradient zeroed" 0.0 adj.Mi.rtt_gradient;
  check_float "deviation zeroed" 0.0 adj.Mi.rtt_deviation

let test_tolerance_keeps_significant_gradient () =
  let t = Tolerance.create Tolerance.proteus_default in
  let m =
    { (metrics ~gradient:0.05 ~deviation:0.003 ()) with
      Mi.regression_error = 0.01 }
  in
  Tolerance.adjust t m;
  let adj = m in
  check_float "gradient kept" 0.05 adj.Mi.rtt_gradient;
  check_float "deviation kept" 0.003 adj.Mi.rtt_deviation

let test_tolerance_disabled_passthrough () =
  let t = Tolerance.create Tolerance.disabled in
  let m =
    { (metrics ~gradient:0.001 ~deviation:0.003 ()) with
      Mi.regression_error = 0.01 }
  in
  Tolerance.adjust t m;
  let adj = m in
  check_float "gradient kept" 0.001 adj.Mi.rtt_gradient

let test_tolerance_vivace_fixed_threshold () =
  let t = Tolerance.create Tolerance.vivace_default in
  let small = metrics ~gradient:0.005 () in
  Tolerance.adjust t small;
  check_float "below fixed threshold" 0.0 small.Mi.rtt_gradient;
  let big = metrics ~gradient:0.05 () in
  Tolerance.adjust t big;
  check_float "above fixed threshold" 0.05 big.Mi.rtt_gradient

let test_tolerance_trending_vetoes_zeroing () =
  (* Feed a long run of quiet MIs, then a slow persistent inflation
     whose per-MI gradient hides under the regression error. The
     trending gate must eventually veto the zeroing. *)
  let t = Tolerance.create Tolerance.proteus_default in
  let quiet i =
    { (metrics ~gradient:0.0005 ~deviation:0.0002 ()) with
      Mi.avg_rtt = 0.05 +. (0.00001 *. float_of_int (i mod 3));
      regression_error = 0.01 }
  in
  for i = 0 to 19 do
    Tolerance.adjust t (quiet i)
  done;
  (* Now RTT climbs 4 ms per MI: the trend is unmistakable. *)
  let vetoed = ref false in
  for i = 0 to 9 do
    let m =
      { (metrics ~gradient:0.005 ~deviation:0.004 ()) with
        Mi.avg_rtt = 0.05 +. (0.004 *. float_of_int i);
        regression_error = 0.01 }
    in
    Tolerance.adjust t m;
    let adj = m in
    if adj.Mi.rtt_gradient <> 0.0 then vetoed := true
  done;
  Alcotest.(check bool) "trend veto fired" true !vetoed

(* ---------- Controller integration ---------- *)

let standard_cfg ?loss_rate ?noise ?(bw = 20.0) ?(buffer = 150_000) () =
  Net.Link.config ?loss_rate ?noise ~bandwidth_mbps:bw ~rtt_ms:30.0
    ~buffer_bytes:buffer ()

let test_controller_saturates () =
  List.iter
    (fun (name, factory) ->
      let r = Net.Runner.create (standard_cfg ()) in
      let f = Net.Runner.add_flow r ~label:name ~factory in
      Net.Runner.run r ~until:25.0;
      let tput =
        Net.Flow_stats.throughput_mbps (Net.Runner.stats f) ~t0:10.0 ~t1:25.0
      in
      if tput < 17.0 then Alcotest.failf "%s reached only %.2f Mbps" name tput)
    [
      ("vivace", Presets.vivace ());
      ("proteus-p", Presets.proteus_p ());
      ("proteus-s", Presets.proteus_s ());
    ]

let test_controller_low_latency () =
  let r = Net.Runner.create (standard_cfg ()) in
  let f = Net.Runner.add_flow r ~label:"p" ~factory:(Presets.proteus_p ()) in
  Net.Runner.run r ~until:25.0;
  match
    Net.Flow_stats.rtt_percentile (Net.Runner.stats f) ~t0:10.0 ~t1:25.0
      ~p:95.0
  with
  | Some p95 ->
      if p95 > 0.06 then Alcotest.failf "proteus-p p95 rtt %.4f too high" p95
  | None -> Alcotest.fail "no rtt samples"

let test_proteus_s_yields_to_cubic () =
  let r = Net.Runner.create (standard_cfg ()) in
  let p = Net.Runner.add_flow r ~label:"cubic"
      ~factory:(Proteus_cc.Cubic.factory ()) in
  let s =
    Net.Runner.add_flow r ~start:5.0 ~label:"scav"
      ~factory:(Presets.proteus_s ())
  in
  Net.Runner.run r ~until:40.0;
  let tp = Net.Flow_stats.throughput_mbps (Net.Runner.stats p) ~t0:15.0 ~t1:40.0 in
  let ts = Net.Flow_stats.throughput_mbps (Net.Runner.stats s) ~t0:15.0 ~t1:40.0 in
  if tp < 17.0 then
    Alcotest.failf "cubic got %.2f, scavenger %.2f: no yielding" tp ts

let test_proteus_p_competes_with_copa () =
  (* Fig. 6: "Proteus-P competes with COPA and Vivace fairly". (Against
     CUBIC in a deep buffer, latency-aware Proteus-P cedes most of the
     bandwidth — also per Fig. 6 — so COPA is the right fairness peer.) *)
  let r = Net.Runner.create (standard_cfg ()) in
  let _p = Net.Runner.add_flow r ~label:"copa"
      ~factory:(Proteus_cc.Copa.factory ()) in
  let q =
    Net.Runner.add_flow r ~start:5.0 ~label:"pp" ~factory:(Presets.proteus_p ())
  in
  Net.Runner.run r ~until:40.0;
  let tq = Net.Flow_stats.throughput_mbps (Net.Runner.stats q) ~t0:15.0 ~t1:40.0 in
  if tq < 4.0 then Alcotest.failf "proteus-p starved by copa: %.2f" tq

let test_dynamic_utility_switch () =
  (* Start as scavenger against a Proteus-P competitor, then switch to
     primary mid-flow: the rate must recover toward the fair share that
     Theorem 4.1 guarantees for two Proteus-P senders. *)
  let cfg = Controller.default_config ~utility:(Utility.proteus_s ()) in
  let factory, get = Presets.with_handle cfg in
  let r = Net.Runner.create (standard_cfg ()) in
  let _peer = Net.Runner.add_flow r ~label:"peer"
      ~factory:(Presets.proteus_p ()) in
  let f = Net.Runner.add_flow r ~label:"flex" ~factory in
  Net.Runner.run r ~until:30.0;
  let scav_tput =
    Net.Flow_stats.throughput_mbps (Net.Runner.stats f) ~t0:15.0 ~t1:30.0
  in
  let c = Option.get (get ()) in
  Alcotest.(check string) "starts as S" "proteus-s" (Controller.utility_name c);
  Controller.set_utility c (Utility.proteus_p ());
  Net.Runner.run r ~until:70.0;
  let primary_tput =
    Net.Flow_stats.throughput_mbps (Net.Runner.stats f) ~t0:50.0 ~t1:70.0
  in
  if primary_tput < 1.8 *. scav_tput || primary_tput < 8.0 then
    Alcotest.failf "switch had no effect: %.2f -> %.2f" scav_tput primary_tput

let test_with_handle_single_use () =
  let cfg = Controller.default_config ~utility:(Utility.proteus_p ()) in
  let factory, _ = Presets.with_handle cfg in
  let env = Net.Sender.make_env ~rng:(Proteus_stats.Rng.create ~seed:1) ~mtu:1500 () in
  ignore (factory env);
  Alcotest.check_raises "second use rejected"
    (Invalid_argument "Presets.with_handle: factory used for multiple flows")
    (fun () -> ignore (factory env))

let test_controller_rate_starts_at_initial () =
  let cfg = Controller.default_config ~utility:(Utility.proteus_p ()) in
  let env = Net.Sender.make_env ~rng:(Proteus_stats.Rng.create ~seed:1) ~mtu:1500 () in
  let c = Controller.create cfg env in
  check_float ~eps:1e-6 "initial rate" 2.0 (Controller.rate_mbps c);
  Alcotest.(check int) "no MIs yet" 0 (Controller.mi_count c)

let test_controller_noise_robustness () =
  (* On a noisy channel, full Proteus-P should clearly beat the
     noise-naive Vivace configuration (the paper's motivation for §5). *)
  let noisy = Net.Noise.default_wifi in
  let tput factory =
    let r = Net.Runner.create (standard_cfg ~noise:noisy ()) in
    let f = Net.Runner.add_flow r ~label:"x" ~factory in
    Net.Runner.run r ~until:30.0;
    Net.Flow_stats.throughput_mbps (Net.Runner.stats f) ~t0:10.0 ~t1:30.0
  in
  let p = tput (Presets.proteus_p ()) in
  if p < 10.0 then
    Alcotest.failf "proteus-p collapsed under wifi noise: %.2f Mbps" p

let suite =
  [
    ("mi lifecycle", `Quick, test_mi_lifecycle);
    ("mi metrics gating", `Quick, test_mi_metrics_requires_complete);
    ("mi linear gradient", `Quick, test_mi_gradient_of_linear_rtts);
    ("mi constant deviation", `Quick, test_mi_deviation_of_constant_rtts);
    ("mi alternating deviation", `Quick, test_mi_deviation_of_alternating_rtts);
    ("mi loss rate", `Quick, test_mi_loss_rate);
    ("mi filtered completion", `Quick, test_mi_filtered_sample_counts_for_completion);
    ("mi send rate", `Quick, test_mi_send_rate);
    ("utility p clean", `Quick, test_utility_p_clean);
    ("utility p clips negative gradient", `Quick,
     test_utility_p_ignores_negative_gradient);
    ("utility vivace raw gradient", `Quick,
     test_utility_vivace_rewards_negative_gradient);
    ("utility loss penalty", `Quick, test_utility_p_penalizes_loss);
    ("utility s deviation penalty", `Quick, test_utility_s_deviation_penalty);
    ("utility loss tolerance threshold", `Quick,
     test_utility_s_loss_tolerance_threshold);
    ("utility h threshold switch", `Quick, test_utility_h_switches_at_threshold);
    ("utility concavity", `Quick, test_utility_concavity_in_rate);
    ("utility custom", `Quick, test_utility_custom);
    ("ack filter regular", `Quick, test_ack_filter_passes_regular_stream);
    ("ack filter spike", `Quick, test_ack_filter_drops_after_interval_spike);
    ("ack filter compression", `Quick, test_ack_filter_burst_after_gap);
    ("tolerance zeroes noise", `Quick, test_tolerance_zeroes_noise_gradient);
    ("tolerance keeps signal", `Quick, test_tolerance_keeps_significant_gradient);
    ("tolerance disabled", `Quick, test_tolerance_disabled_passthrough);
    ("tolerance vivace fixed", `Quick, test_tolerance_vivace_fixed_threshold);
    ("tolerance trending veto", `Quick, test_tolerance_trending_vetoes_zeroing);
    ("controller saturates", `Slow, test_controller_saturates);
    ("controller low latency", `Slow, test_controller_low_latency);
    ("proteus-s yields to cubic", `Slow, test_proteus_s_yields_to_cubic);
    ("proteus-p competes", `Slow, test_proteus_p_competes_with_copa);
    ("dynamic utility switch", `Slow, test_dynamic_utility_switch);
    ("with_handle single use", `Quick, test_with_handle_single_use);
    ("controller initial state", `Quick, test_controller_rate_starts_at_initial);
    ("controller noise robustness", `Slow, test_controller_noise_robustness);
  ]
