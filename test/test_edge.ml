(* Edge-case tests: degenerate scenario parameters, tiny/huge values,
   and API misuse that must fail cleanly. *)

module Net = Proteus_net
module Stats = Proteus_stats

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------- Runner edges ---------- *)

let cfg ?(bw = 10.0) ?(buffer = 50_000) () =
  Net.Link.config ~bandwidth_mbps:bw ~rtt_ms:20.0 ~buffer_bytes:buffer ()

let test_stop_before_start_sends_nothing () =
  let r = Net.Runner.create (cfg ()) in
  let f =
    Net.Runner.add_flow r ~start:5.0 ~stop:2.0 ~label:"ghost"
      ~factory:(Proteus_cc.Cubic.factory ())
  in
  Net.Runner.run r ~until:10.0;
  Alcotest.(check int) "nothing sent" 0
    (Net.Flow_stats.packets_sent (Net.Runner.stats f))

let test_tiny_finite_flow () =
  (* A 1-byte flow: one sub-MTU packet, then completion. *)
  let r = Net.Runner.create (cfg ()) in
  let f =
    Net.Runner.add_flow r ~label:"tiny" ~size_bytes:1
      ~factory:(Proteus_cc.Cubic.factory ())
  in
  Net.Runner.run r ~until:5.0;
  Alcotest.(check bool) "complete" true (Net.Runner.is_complete f);
  Alcotest.(check int) "one packet" 1
    (Net.Flow_stats.packets_sent (Net.Runner.stats f))

let test_pause_before_start () =
  let r = Net.Runner.create (cfg ()) in
  let f =
    Net.Runner.add_flow r ~start:1.0 ~label:"p"
      ~factory:(Proteus_cc.Cubic.factory ())
  in
  Net.Runner.pause r f;
  Net.Runner.run r ~until:3.0;
  Alcotest.(check int) "paused from birth" 0
    (Net.Flow_stats.packets_sent (Net.Runner.stats f));
  Net.Runner.resume r f;
  Net.Runner.run r ~until:6.0;
  if Net.Flow_stats.packets_sent (Net.Runner.stats f) = 0 then
    Alcotest.fail "never resumed"

let test_double_resume_harmless () =
  let r = Net.Runner.create (cfg ()) in
  let f = Net.Runner.add_flow r ~label:"d" ~factory:(Proteus_cc.Cubic.factory ()) in
  Net.Runner.run r ~until:1.0;
  Net.Runner.resume r f;
  Net.Runner.resume r f;
  Net.Runner.run r ~until:2.0;
  if Net.Flow_stats.packets_sent (Net.Runner.stats f) = 0 then
    Alcotest.fail "flow stalled"

let test_zero_capacity_buffer_all_drops () =
  (* A buffer smaller than one packet drops everything beyond the
     packet in service. *)
  let r = Net.Runner.create (cfg ~buffer:1500 ()) in
  let f = Net.Runner.add_flow r ~label:"z" ~factory:(Proteus_cc.Cubic.factory ()) in
  Net.Runner.run r ~until:5.0;
  let st = Net.Runner.stats f in
  if Net.Flow_stats.packets_acked st = 0 then
    Alcotest.fail "even the in-service packet should deliver";
  if Net.Flow_stats.packets_lost st = 0 then
    Alcotest.fail "overflow should drop"

let test_flow_on_lossy_link_makes_progress () =
  let linkcfg =
    Net.Link.config ~loss_rate:0.3 ~bandwidth_mbps:10.0 ~rtt_ms:20.0
      ~buffer_bytes:100_000 ()
  in
  let r = Net.Runner.create linkcfg in
  let f =
    Net.Runner.add_flow r ~label:"lossy" ~size_bytes:300_000
      ~factory:(Proteus_cc.Cubic.factory ())
  in
  Net.Runner.run r ~until:120.0;
  Alcotest.(check bool) "completes at 30% loss" true (Net.Runner.is_complete f)

(* ---------- Stats edges ---------- *)

let test_percentile_singleton () =
  check_float "singleton" 7.0 (Stats.Descriptive.percentile [| 7.0 |] ~p:95.0)

let test_percentile_rejects_bad_p () =
  Alcotest.check_raises "p > 100"
    (Invalid_argument "Descriptive.percentile: p") (fun () ->
      ignore (Stats.Descriptive.percentile [| 1.0 |] ~p:101.0))

let test_jain_all_zero () =
  check_float "all-zero allocations are trivially fair" 1.0
    (Stats.Descriptive.jain_index [| 0.0; 0.0 |])

let test_ewma_rejects_bad_alpha () =
  Alcotest.check_raises "alpha" (Invalid_argument "Ewma.create: alpha")
    (fun () -> ignore (Stats.Ewma.create ~alpha:1.5))

let test_histogram_rejects_bad_range () =
  Alcotest.check_raises "range" (Invalid_argument "Histogram.create")
    (fun () -> ignore (Stats.Histogram.create ~lo:1.0 ~hi:1.0 ~bins:4))

(* The ACK log's windows: an inverted window over a logged ACK is
   refused, an empty one yields nothing. *)
let test_flow_stats_inverted_window () =
  let st = Net.Flow_stats.create () in
  Net.Flow_stats.record_ack st ~now:1.0 ~size:1500 ~rtt:0.05;
  Alcotest.check_raises "inverted"
    (Invalid_argument "Flow_stats.rtt_samples: inverted window") (fun () ->
      ignore (Net.Flow_stats.rtt_samples st ~t0:2.0 ~t1:0.5));
  Alcotest.(check int)
    "empty" 0
    (Array.length (Net.Flow_stats.rtt_samples st ~t0:1.5 ~t1:1.5))

let test_winfilter_empty () =
  let f = Stats.Winfilter.create_min ~window:1.0 in
  Alcotest.(check bool) "none" true (Stats.Winfilter.get f = None);
  Alcotest.check_raises "exn" (Invalid_argument "Winfilter.get_exn: no samples")
    (fun () -> ignore (Stats.Winfilter.get_exn f))

let test_winfilter_shrinking_window () =
  let f = Stats.Winfilter.create_min ~window:100.0 in
  Stats.Winfilter.update f ~now:0.0 1.0;
  Stats.Winfilter.update f ~now:10.0 5.0;
  Stats.Winfilter.set_window f 2.0;
  (* Next update expires the old minimum. *)
  Stats.Winfilter.update f ~now:11.0 4.0;
  check_float "old min expired" 4.0 (Stats.Winfilter.get_exn f)

(* ---------- MI / controller edges ---------- *)

let one_sample_mi ~start ~end_time =
  let mi = Proteus.Mi.create ~id:0 ~target_rate:125_000.0 ~start_time:start in
  Proteus.Mi.record_sent mi ~size:1500;
  Proteus.Mi.record_ack_m mi ~meta:[| 0.0; start; 0.05 |] ~accepted:true;
  Proteus.Mi.close mi ~times:[| 0.0; 0.0; end_time |];
  mi

let test_mi_single_sample_metrics () =
  let mi = one_sample_mi ~start:0.0 ~end_time:0.1 in
  let m = Proteus.Mi.metrics mi in
  check_float "avg is the sample" 0.05 m.Proteus.Mi.avg_rtt;
  check_float "no gradient from one point" 0.0 m.Proteus.Mi.rtt_gradient

let test_mi_zero_duration_guard () =
  let mi = one_sample_mi ~start:1.0 ~end_time:1.0 in
  (* Duration clamped away from zero: metrics must be finite. *)
  let m = Proteus.Mi.metrics mi in
  if not (Float.is_finite m.Proteus.Mi.send_rate_mbps) then
    Alcotest.fail "non-finite rate"

let test_video_buffer_smaller_than_chunk () =
  (* A playback buffer that holds less than one chunk still works: the
     chunk is clamped, playback starts. *)
  let p = Proteus_video.Playback.create ~capacity_seconds:2.0 () in
  Proteus_video.Playback.add_chunk p ~now:0.0 ~seconds:3.0;
  check_float "clamped" 2.0 (Proteus_video.Playback.buffer_seconds p);
  Alcotest.(check bool) "started" true (Proteus_video.Playback.started p)

let test_link_config_defaults () =
  let c = Net.Link.config ~bandwidth_mbps:10.0 ~rtt_ms:20.0 ~buffer_bytes:1 () in
  check_float "no loss by default" 0.0 c.Net.Link.loss_rate

let suite =
  [
    ("stop before start", `Quick, test_stop_before_start_sends_nothing);
    ("tiny finite flow", `Quick, test_tiny_finite_flow);
    ("pause before start", `Quick, test_pause_before_start);
    ("double resume", `Quick, test_double_resume_harmless);
    ("sub-packet buffer", `Quick, test_zero_capacity_buffer_all_drops);
    ("30% loss progress", `Slow, test_flow_on_lossy_link_makes_progress);
    ("percentile singleton", `Quick, test_percentile_singleton);
    ("percentile bad p", `Quick, test_percentile_rejects_bad_p);
    ("jain all zero", `Quick, test_jain_all_zero);
    ("ewma bad alpha", `Quick, test_ewma_rejects_bad_alpha);
    ("histogram bad range", `Quick, test_histogram_rejects_bad_range);
    ("flow stats inverted window", `Quick, test_flow_stats_inverted_window);
    ("winfilter empty", `Quick, test_winfilter_empty);
    ("winfilter shrink window", `Quick, test_winfilter_shrinking_window);
    ("mi single sample", `Quick, test_mi_single_sample_metrics);
    ("mi zero duration", `Quick, test_mi_zero_duration_guard);
    ("playback tiny capacity", `Quick, test_video_buffer_smaller_than_chunk);
    ("link config defaults", `Quick, test_link_config_defaults);
  ]
