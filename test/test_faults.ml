(* Tests for the fault-injection substrate: link config validation,
   dynamic impairment schedules (bandwidth/RTT steps, outages),
   Gilbert–Elliott bursty loss, ACK reordering/duplication, the runtime
   invariant auditor, and pause/resume interactions with finite flows.
   Ends with a fixed-seed property sweep: random impairment schedules
   must never trip the auditor for any congestion controller. *)

open Proteus_net
module Rng = Proteus_stats.Rng
module Pool = Proteus_parallel.Pool

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let expect_invalid msg f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  | exception Invalid_argument _ -> ()

let expect_violation msg f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Audit.Violation" msg
  | exception Audit.Violation _ -> ()

(* ---------- Link.config validation ---------- *)

let base ?loss_rate ?loss ?noise ?schedule ?reorder_prob ?reorder_extra_ms
    ?dup_prob ?(bw = 10.0) ?(rtt = 20.0) ?(buffer = 100_000) () =
  Link.config ?loss_rate ?loss ?noise ?schedule ?reorder_prob ?reorder_extra_ms
    ?dup_prob ~bandwidth_mbps:bw ~rtt_ms:rtt ~buffer_bytes:buffer ()

let test_config_validation () =
  ignore (base ());
  expect_invalid "zero bandwidth" (fun () -> base ~bw:0.0 ());
  expect_invalid "negative bandwidth" (fun () -> base ~bw:(-5.0) ());
  expect_invalid "nan bandwidth" (fun () -> base ~bw:Float.nan ());
  expect_invalid "inf bandwidth" (fun () -> base ~bw:Float.infinity ());
  expect_invalid "zero rtt" (fun () -> base ~rtt:0.0 ());
  expect_invalid "negative rtt" (fun () -> base ~rtt:(-1.0) ());
  expect_invalid "zero buffer" (fun () -> base ~buffer:0 ());
  expect_invalid "negative buffer" (fun () -> base ~buffer:(-1) ());
  expect_invalid "loss_rate > 1" (fun () -> base ~loss_rate:1.5 ());
  expect_invalid "loss_rate < 0" (fun () -> base ~loss_rate:(-0.1) ());
  expect_invalid "nan loss_rate" (fun () -> base ~loss_rate:Float.nan ());
  expect_invalid "reorder_prob > 1" (fun () -> base ~reorder_prob:2.0 ());
  expect_invalid "negative reorder_extra" (fun () ->
      base ~reorder_extra_ms:(-1.0) ());
  expect_invalid "dup_prob < 0" (fun () -> base ~dup_prob:(-0.5) ());
  expect_invalid "bad GE transition" (fun () ->
      base
        ~loss:
          (Link.Gilbert_elliott
             { p_good_bad = 1.5; p_bad_good = 0.1; loss_good = 0.0;
               loss_bad = 0.5 })
        ());
  let noise n = base ~noise:n () in
  let gaussian sigma_ms = noise (Noise.Gaussian { sigma_ms }) in
  ignore (gaussian 0.0);
  ignore (gaussian 2.0);
  ignore (noise Noise.default_wifi);
  ignore (noise Noise.default_lte);
  expect_invalid "nan gaussian sigma" (fun () -> gaussian Float.nan);
  expect_invalid "negative gaussian sigma" (fun () -> gaussian (-1.0));
  expect_invalid "inf gaussian sigma" (fun () -> gaussian Float.infinity);
  let wifi ?(jitter_ms = 1.0) ?(spike_prob = 0.004) ?(spike_scale_ms = 8.0)
      ?(gate_prob = 0.01) ?(gate_max_ms = 25.0) () =
    noise
      (Noise.Wifi
         { jitter_ms; spike_prob; spike_scale_ms; gate_prob; gate_max_ms })
  in
  expect_invalid "nan wifi jitter" (fun () -> wifi ~jitter_ms:Float.nan ());
  expect_invalid "wifi spike_prob > 1" (fun () -> wifi ~spike_prob:1.5 ());
  expect_invalid "negative wifi spike scale" (fun () ->
      wifi ~spike_scale_ms:(-8.0) ());
  expect_invalid "nan wifi gate_prob" (fun () -> wifi ~gate_prob:Float.nan ());
  expect_invalid "inf wifi gate" (fun () -> wifi ~gate_max_ms:Float.infinity ());
  let lte ?(frame_ms = 1.0) ?(jitter_ms = 0.3) ?(outage_prob = 0.002)
      ?(outage_max_ms = 40.0) () =
    noise (Noise.Lte { frame_ms; jitter_ms; outage_prob; outage_max_ms })
  in
  expect_invalid "zero lte frame" (fun () -> lte ~frame_ms:0.0 ());
  expect_invalid "negative lte jitter" (fun () -> lte ~jitter_ms:(-0.3) ());
  expect_invalid "lte outage_prob < 0" (fun () -> lte ~outage_prob:(-0.1) ());
  expect_invalid "nan lte outage" (fun () -> lte ~outage_max_ms:Float.nan ());
  (* Link.create re-validates records built without the constructor. *)
  expect_invalid "create with nan sigma" (fun () ->
      Link.create ~id:0
        { (base ()) with noise = Noise.Gaussian { sigma_ms = Float.nan } }
        ~rng:(Rng.create ~seed:1))

let test_schedule_validation () =
  ignore
    (base ~schedule:[ (1.0, Link.Set_bandwidth 5.0) ] ());
  expect_invalid "negative schedule time" (fun () ->
      base ~schedule:[ (-1.0, Link.Set_bandwidth 5.0) ] ());
  expect_invalid "scheduled zero bandwidth" (fun () ->
      base ~schedule:[ (1.0, Link.Set_bandwidth 0.0) ] ());
  expect_invalid "scheduled negative rtt" (fun () ->
      base ~schedule:[ (1.0, Link.Set_rtt (-3.0)) ] ());
  expect_invalid "scheduled zero buffer" (fun () ->
      base ~schedule:[ (1.0, Link.Set_buffer 0) ] ());
  expect_invalid "zero-length outage" (fun () ->
      base ~schedule:[ (1.0, Link.Down { duration = 0.0; flush = false }) ] ());
  expect_invalid "overlapping outages" (fun () ->
      base
        ~schedule:
          [
            (1.0, Link.Down { duration = 2.0; flush = false });
            (2.5, Link.Down { duration = 1.0; flush = true });
          ]
        ());
  (* Raw records that bypass the smart constructor are caught at
     [Link.create]. *)
  let cfg = base () in
  expect_invalid "create validates raw record" (fun () ->
      Link.create ~id:0
        { cfg with Link.bandwidth_mbps = -1.0 }
        ~rng:(Rng.create ~seed:1))

(* ---------- Noise precondition ---------- *)

let test_noise_nondecreasing_precondition () =
  let n = Noise.create Noise.default_wifi ~rng:(Rng.create ~seed:2) in
  ignore (Noise.ack_delivery_time n ~nominal:10.0);
  expect_invalid "decreasing nominal" (fun () ->
      Noise.ack_delivery_time n ~nominal:5.0);
  (* Equal and slightly-larger nominals stay legal. *)
  ignore (Noise.ack_delivery_time n ~nominal:10.0);
  ignore (Noise.ack_delivery_time n ~nominal:10.001)

(* ---------- Gilbert–Elliott loss ---------- *)

let ge =
  Link.Gilbert_elliott
    { p_good_bad = 0.02; p_bad_good = 0.25; loss_good = 0.0; loss_bad = 1.0 }

let test_ge_average_loss_formula () =
  (* Stationary P(bad) = 0.02 / 0.27. *)
  check_float ~eps:1e-12 "GE average" (0.02 /. 0.27) (Link.average_loss ge);
  check_float ~eps:1e-12 "iid average" 0.07 (Link.average_loss (Link.Iid 0.07))

let test_ge_empirical_loss_and_bursts () =
  let link =
    Round_trip.create
      (base ~loss:ge ~buffer:1_000_000_000 ())
      ~rng:(Rng.create ~seed:7)
  in
  let n = 40_000 in
  let drops = ref 0 in
  let bursts = ref 0 in
  let in_burst = ref false in
  for i = 0 to n - 1 do
    (* Spaced sends: the queue never overflows, so every drop is GE. *)
    match Round_trip.send link ~now:(float_of_int i) ~size:1500 with
    | Round_trip.Dropped ->
        incr drops;
        if not !in_burst then incr bursts;
        in_burst := true
    | Round_trip.Delivered _ -> in_burst := false
  done;
  let rate = float_of_int !drops /. float_of_int n in
  let expected = Link.average_loss ge in
  if Float.abs (rate -. expected) > 0.015 then
    Alcotest.failf "GE loss rate %.4f far from %.4f" rate expected;
  (* Mean burst length is geometric with mean 1/p_bad_good = 4. *)
  let mean_burst = float_of_int !drops /. float_of_int (max 1 !bursts) in
  if mean_burst < 3.0 || mean_burst > 5.0 then
    Alcotest.failf "GE mean burst %.2f not near 4" mean_burst

(* ---------- dynamic impairments (link level) ---------- *)

let test_outage_window () =
  let cfg =
    base ~schedule:[ (1.0, Link.Down { duration = 2.0; flush = false }) ] ()
  in
  let link = Round_trip.create cfg ~rng:(Rng.create ~seed:3) in
  Alcotest.(check bool) "up before" false (Link.is_down link.fwd ~now:0.5);
  (match Round_trip.send link ~now:0.5 ~size:1500 with
  | Round_trip.Delivered _ -> ()
  | Round_trip.Dropped -> Alcotest.fail "dropped before outage");
  Alcotest.(check bool) "down inside" true (Link.is_down link.fwd ~now:1.5);
  (match Round_trip.send link ~now:1.5 ~size:1500 with
  | Round_trip.Dropped -> ()
  | Round_trip.Delivered _ -> Alcotest.fail "delivered during outage");
  Alcotest.(check bool) "up after" false (Link.is_down link.fwd ~now:3.5);
  (match Round_trip.send link ~now:3.5 ~size:1500 with
  | Round_trip.Delivered _ -> ()
  | Round_trip.Dropped -> Alcotest.fail "dropped after outage");
  (* Through the runner, with the buffer overfilled (20 Mbps into 10):
     a packet refused inside the window is notified only after the link
     is back up, one RTT after the window end at the earliest. *)
  let losses =
    Round_trip.losses cfg ~stop:4.0
      ~factory:(Proteus_cc.Blaster.factory ~rate_mbps:20.0)
      ~until:5.0
  in
  let in_window =
    List.filter (fun (send, _) -> send >= 1.0 && send < 3.0) losses
  in
  if List.length in_window < 100 then
    Alcotest.failf "only %d losses sent inside the outage" (List.length in_window);
  List.iter
    (fun (send, notify) ->
      if notify < 3.0 +. 0.02 -. 1e-9 then
        Alcotest.failf "drop sent at %.4f notified at %.4f, before window end"
          send notify)
    in_window

(* A mirrored RTT step (both directions of the dumbbell, 20 -> 60 ms)
   while every packet drops: nothing crosses the reverse link, yet a
   drop after the step is notified after the new RTT, not a mix of old
   and new propagation delays. *)
let test_loss_notify_after_rtt_step () =
  let cfg =
    base ~loss_rate:1.0 ~schedule:[ (0.5, Link.Set_rtt 60.0) ] ()
  in
  let losses =
    Round_trip.losses cfg ~stop:1.0
      ~factory:(Proteus_cc.Blaster.factory ~rate_mbps:1.0)
      ~until:2.0
  in
  let before = List.filter (fun (send, _) -> send < 0.5) losses in
  let after = List.filter (fun (send, _) -> send >= 0.5) losses in
  if before = [] || after = [] then Alcotest.fail "expected losses on both sides";
  List.iter
    (fun (send, notify) -> check_float "old RTT" 0.02 (notify -. send))
    before;
  List.iter
    (fun (send, notify) -> check_float "new RTT" 0.06 (notify -. send))
    after

let test_outage_drain_shifts_departures () =
  (* A packet queued before a drain outage departs after the window. *)
  let cfg =
    base ~schedule:[ (0.001, Link.Down { duration = 1.0; flush = false }) ] ()
  in
  let link = Round_trip.create cfg ~rng:(Rng.create ~seed:4) in
  (* 1500 B at 10 Mbps serializes in 1.2 ms, crossing the window start
     at 1 ms: the outage inserts a full 1 s pause. *)
  match Round_trip.send link ~now:0.0 ~size:1500 with
  | Round_trip.Delivered { ack_time; _ } ->
      if ack_time < 1.0 then
        Alcotest.failf "queued packet delivered at %.4f, inside outage"
          ack_time
  | Round_trip.Dropped -> Alcotest.fail "drain outage must not drop the queue"

let test_outage_flush_discards_queue () =
  (* Same shape but [flush = true]: the queued packet is discarded. *)
  let cfg =
    base ~schedule:[ (0.001, Link.Down { duration = 1.0; flush = true }) ] ()
  in
  let link = Round_trip.create cfg ~rng:(Rng.create ~seed:4) in
  match Round_trip.send link ~now:0.0 ~size:1500 with
  | Round_trip.Dropped -> ()
  | Round_trip.Delivered _ -> Alcotest.fail "flush outage must drop the queue"

let test_bandwidth_step () =
  let cfg = base ~schedule:[ (1.0, Link.Set_bandwidth 20.0) ] () in
  let link = Round_trip.create cfg ~rng:(Rng.create ~seed:5) in
  (match Round_trip.send link ~now:0.0 ~size:1500 with
  | Round_trip.Delivered { rtt; _ } ->
      check_float "10 Mbps serialization" (0.0212 +. Round_trip.ack_ser 10.0) rtt
  | Round_trip.Dropped -> Alcotest.fail "drop");
  (match Round_trip.send link ~now:2.0 ~size:1500 with
  | Round_trip.Delivered { rtt; _ } ->
      check_float "20 Mbps serialization" (0.0206 +. Round_trip.ack_ser 20.0) rtt
  | Round_trip.Dropped -> Alcotest.fail "drop");
  check_float "capacity updated" 2_500_000.0 (Link.capacity_bytes_per_sec link.fwd)

let test_bandwidth_step_preserves_backlog () =
  (* 10 packets queued at 10 Mbps; the rate doubles mid-queue. The
     unserved bytes at the change instant are re-served at 20 Mbps. *)
  let cfg = base ~schedule:[ (0.005, Link.Set_bandwidth 20.0) ] () in
  let link = Round_trip.create cfg ~rng:(Rng.create ~seed:5) in
  for _ = 1 to 10 do
    ignore (Round_trip.send link ~now:0.0 ~size:1500)
  done;
  (* free_at = 0.012; unserved at 0.005 is 8750 B -> 3.5 ms at 20 Mbps. *)
  check_float ~eps:1e-9 "requeued delay" 0.0035 (Link.queue_delay link.fwd ~now:0.005)

let test_rtt_step_keeps_acks_ordered () =
  (* An RTT reduction mid-run must not violate the Noise precondition
     nor reorder the noiseless ACK stream (FIFO clamp). *)
  let cfg =
    base ~noise:Noise.default_wifi ~rtt:40.0
      ~schedule:[ (1.0, Link.Set_rtt 10.0) ] ()
  in
  let link = Round_trip.create cfg ~rng:(Rng.create ~seed:6) in
  let n = 500 in
  for i = 0 to n - 1 do
    let now = float_of_int i *. 0.005 in
    match Round_trip.send link ~now ~size:1500 with
    | Round_trip.Delivered { rtt; _ } ->
        if rtt <= 0.0 then Alcotest.failf "nonpositive rtt %.6f" rtt
    | Round_trip.Dropped -> ()
  done;
  check_float "rtt updated" 0.01 (Link.base_rtt link.fwd)

let test_reordering_knob () =
  let cfg = base ~reorder_prob:1.0 ~reorder_extra_ms:5.0 ~buffer:1_000_000 () in
  let link = Round_trip.create cfg ~rng:(Rng.create ~seed:8) in
  let acks = ref [] in
  for _ = 1 to 50 do
    match Round_trip.send link ~now:0.0 ~size:1500 with
    | Round_trip.Delivered { ack_time; _ } -> acks := ack_time :: !acks
    | Round_trip.Dropped -> Alcotest.fail "drop"
  done;
  let acks = Array.of_list (List.rev !acks) in
  let out_of_order = ref false in
  for i = 0 to Array.length acks - 2 do
    if acks.(i) > acks.(i + 1) then out_of_order := true
  done;
  Alcotest.(check bool) "reordering observed" true !out_of_order

let test_duplication_knob () =
  let cfg = base ~dup_prob:1.0 () in
  let link = Round_trip.create cfg ~rng:(Rng.create ~seed:9) in
  (match Round_trip.send link ~now:0.0 ~size:1500 with
  | Round_trip.Delivered { ack_time; dup_ack_time; _ } ->
      if Float.is_nan dup_ack_time then Alcotest.fail "no duplicate";
      if dup_ack_time <= ack_time then
        Alcotest.fail "duplicate must trail the primary ACK"
  | Round_trip.Dropped -> Alcotest.fail "drop");
  let cfg0 = base () in
  let link0 = Round_trip.create cfg0 ~rng:(Rng.create ~seed:9) in
  match Round_trip.send link0 ~now:0.0 ~size:1500 with
  | Round_trip.Delivered { dup_ack_time; _ } ->
      Alcotest.(check bool) "no dup by default" true (Float.is_nan dup_ack_time)
  | Round_trip.Dropped -> Alcotest.fail "drop"

(* ---------- auditor unit tests ---------- *)

let test_audit_happy_path () =
  let a = Audit.create ~trace:8 () in
  let f = Audit.register_flow a ~label:"x" in
  Audit.on_sent a ~flow:f ~seq:0 ~size:1500 ~now:0.0;
  Audit.on_sent a ~flow:f ~seq:1 ~size:1500 ~now:0.001;
  Alcotest.(check int) "outstanding" 2 (Audit.outstanding a);
  Audit.on_ack a ~flow:f ~seq:0 ~size:1500 ~now:0.02;
  Audit.on_loss a ~flow:f ~seq:1 ~size:1500 ~now:0.04;
  Alcotest.(check int) "drained" 0 (Audit.outstanding a);
  Audit.assert_quiesced a;
  Alcotest.(check int) "events" 4 (Audit.events_checked a)

let test_audit_detects_double_delivery () =
  let a = Audit.create () in
  let f = Audit.register_flow a ~label:"x" in
  Audit.on_sent a ~flow:f ~seq:0 ~size:1500 ~now:0.0;
  Audit.on_ack a ~flow:f ~seq:0 ~size:1500 ~now:0.02;
  expect_violation "double ACK" (fun () ->
      Audit.on_ack a ~flow:f ~seq:0 ~size:1500 ~now:0.03)

let test_audit_detects_phantom_delivery () =
  let a = Audit.create () in
  let f = Audit.register_flow a ~label:"x" in
  expect_violation "never-sent seq" (fun () ->
      Audit.on_ack a ~flow:f ~seq:7 ~size:1500 ~now:0.02)

let test_audit_detects_duplicate_send () =
  let a = Audit.create () in
  let f = Audit.register_flow a ~label:"x" in
  Audit.on_sent a ~flow:f ~seq:0 ~size:1500 ~now:0.0;
  expect_violation "same seq twice" (fun () ->
      Audit.on_sent a ~flow:f ~seq:0 ~size:1500 ~now:0.001)

let test_audit_detects_time_reversal () =
  let a = Audit.create () in
  let f = Audit.register_flow a ~label:"x" in
  Audit.on_sent a ~flow:f ~seq:0 ~size:1500 ~now:1.0;
  expect_violation "clock ran backwards" (fun () ->
      Audit.on_sent a ~flow:f ~seq:1 ~size:1500 ~now:0.5)

let test_audit_detects_bad_backlog () =
  let a = Audit.create () in
  expect_violation "negative backlog" (fun () ->
      Audit.observe_backlog a ~backlog:(-1.0) ~now:0.0);
  let a2 = Audit.create () in
  expect_violation "nan backlog" (fun () ->
      Audit.observe_backlog a2 ~backlog:Float.nan ~now:0.0)

let test_audit_detects_leak_at_quiesce () =
  let a = Audit.create () in
  let f = Audit.register_flow a ~label:"x" in
  Audit.on_sent a ~flow:f ~seq:0 ~size:1500 ~now:0.0;
  expect_violation "packet neither acked nor lost" (fun () ->
      Audit.assert_quiesced a)

let test_audit_dup_requires_prior_delivery () =
  let a = Audit.create () in
  let f = Audit.register_flow a ~label:"x" in
  Audit.on_sent a ~flow:f ~seq:0 ~size:1500 ~now:0.0;
  expect_violation "dup while in flight" (fun () ->
      Audit.on_dup_ack a ~flow:f ~seq:0 ~now:0.01);
  let a2 = Audit.create () in
  let f2 = Audit.register_flow a2 ~label:"x" in
  Audit.on_sent a2 ~flow:f2 ~seq:0 ~size:1500 ~now:0.0;
  Audit.on_ack a2 ~flow:f2 ~seq:0 ~size:1500 ~now:0.02;
  Audit.on_dup_ack a2 ~flow:f2 ~seq:0 ~now:0.03;
  Audit.assert_quiesced a2

let test_audit_trace_ring_bounded () =
  let a = Audit.create ~trace:4 () in
  let f = Audit.register_flow a ~label:"x" in
  for i = 0 to 9 do
    Audit.on_sent a ~flow:f ~seq:i ~size:1500 ~now:(float_of_int i)
  done;
  let tr = Audit.recent_events a in
  Alcotest.(check int) "ring keeps last 4" 4 (List.length tr);
  (* Oldest retained event is seq 6. *)
  match tr with
  | first :: _ ->
      if not (String.length first > 0) then Alcotest.fail "empty trace line";
      let has_seq6 =
        List.exists
          (fun line ->
            String.length line >= 5
            && String.sub line (String.length line - 5) 5 = "seq=6")
          [ first ]
      in
      Alcotest.(check bool) "oldest is seq 6" true has_seq6
  | [] -> Alcotest.fail "empty trace"

(* A NaN event time used to poison the clocks: [Float.max] kept the NaN,
   every later comparison was false, and reversals went unnoticed. *)
let test_audit_rejects_non_finite_time () =
  let a = Audit.create () in
  let f = Audit.register_flow a ~label:"x" in
  Audit.on_sent a ~flow:f ~seq:0 ~size:1500 ~now:5.0;
  expect_violation "NaN send time" (fun () ->
      Audit.on_sent a ~flow:f ~seq:1 ~size:1500 ~now:Float.nan);
  expect_violation "reversal after a NaN send" (fun () ->
      Audit.on_sent a ~flow:f ~seq:2 ~size:1500 ~now:0.5);
  let a = Audit.create () in
  let f = Audit.register_flow a ~label:"x" in
  Audit.on_sent a ~flow:f ~seq:0 ~size:1500 ~now:0.0;
  Audit.on_sent a ~flow:f ~seq:1 ~size:1500 ~now:0.0;
  Audit.on_ack a ~flow:f ~seq:0 ~size:1500 ~now:5.0;
  expect_violation "NaN ACK time" (fun () ->
      Audit.on_ack a ~flow:f ~seq:1 ~size:1500 ~now:Float.nan);
  expect_violation "ACK reversal after a NaN ACK" (fun () ->
      Audit.on_ack a ~flow:f ~seq:1 ~size:1500 ~now:0.5);
  List.iter
    (fun now ->
      let a = Audit.create () in
      let f = Audit.register_flow a ~label:"x" in
      expect_violation "non-finite send time" (fun () ->
          Audit.on_sent a ~flow:f ~seq:0 ~size:1500 ~now);
      expect_violation "non-finite hop time" (fun () ->
          Audit.on_hop_enter a ~link:0 ~now))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  let a = Audit.create () in
  Audit.on_hop_enter a ~link:0 ~now:5.0;
  expect_violation "NaN hop exit" (fun () ->
      Audit.on_hop_exit a ~link:0 ~now:Float.nan);
  expect_violation "hop reversal after a NaN hop event" (fun () ->
      Audit.on_hop_exit a ~link:0 ~now:0.5)

(* ---------- auditor vs reference model ---------- *)

type audit_op = Op_sent | Op_ack | Op_loss | Op_dup

type audit_step = {
  op : audit_op;
  flow : int;
  seq : int;
  size : int;
  now : float;
}

(* Feed one step to both; [Some (audit_ok, model_ok)] on a mismatch of
   the decision or of the outstanding count. *)
let audit_step a m s =
  let run f = match f () with () -> true | exception _ -> false in
  let ok_a =
    run (fun () ->
        match s.op with
        | Op_sent -> Audit.on_sent a ~flow:s.flow ~seq:s.seq ~size:s.size ~now:s.now
        | Op_ack -> Audit.on_ack a ~flow:s.flow ~seq:s.seq ~size:s.size ~now:s.now
        | Op_loss -> Audit.on_loss a ~flow:s.flow ~seq:s.seq ~size:s.size ~now:s.now
        | Op_dup -> Audit.on_dup_ack a ~flow:s.flow ~seq:s.seq ~now:s.now)
  in
  let ok_m =
    run (fun () ->
        match s.op with
        | Op_sent -> Audit_model.on_sent m ~flow:s.flow ~seq:s.seq ~size:s.size ~now:s.now
        | Op_ack -> Audit_model.on_ack m ~flow:s.flow ~seq:s.seq ~size:s.size ~now:s.now
        | Op_loss -> Audit_model.on_loss m ~flow:s.flow ~seq:s.seq ~size:s.size ~now:s.now
        | Op_dup -> Audit_model.on_dup_ack m ~flow:s.flow ~seq:s.seq ~now:s.now)
  in
  ok_a = ok_m && Audit.outstanding a = Audit_model.outstanding m

let show_step s =
  Printf.sprintf "%s flow=%d seq=%d size=%d now=%g"
    (match s.op with
    | Op_sent -> "sent"
    | Op_ack -> "ack"
    | Op_loss -> "loss"
    | Op_dup -> "dup")
    s.flow s.seq s.size s.now

(* Run [steps] through a fresh auditor with two flows and the model;
   also compare the quiesce decision at the end. *)
let audit_agrees steps =
  let a = Audit.create () in
  ignore (Audit.register_flow a ~label:"f0");
  ignore (Audit.register_flow a ~label:"f1");
  let m = Audit_model.create ~flows:2 in
  List.for_all (audit_step a m) steps
  &&
  let quiesced = match Audit.assert_quiesced a with () -> true | exception _ -> false in
  quiesced = (Audit_model.outstanding m = 0)

(* Hostile seqs: small values (heavy reuse, so resends after delivery
   and double deliveries happen), values equal modulo every power-of-two
   table size, negatives, and the extremes of int. *)
let hostile_seq =
  QCheck.Gen.(
    frequency
      [
        (5, int_range 0 20);
        (2, map (fun k -> k lsl 12) (int_range (-4) 8));
        ( 1,
          oneofl
            [ -1; -64; max_int; min_int; max_int - 64; min_int + 64; 1 lsl 40 ] );
      ])

let random_steps =
  let open QCheck.Gen in
  let step =
    map
      (fun (op, flow, seq, (size, dt)) -> (op, flow, seq, size, dt))
      (quad
         (frequency
            [ (4, return Op_sent); (3, return Op_ack); (1, return Op_loss);
              (1, return Op_dup) ])
         (frequency [ (12, int_range 0 1); (1, return 2); (1, return (-1)) ])
         hostile_seq
         (pair
            (frequency [ (12, return 1500); (1, oneofl [ 40; max_int ]) ])
            (frequency
               [ (8, float_range 0.0 0.01); (1, return 0.0); (1, return (-0.5)) ])))
  in
  map
    (fun raw ->
      let clock = ref 0.0 in
      List.map
        (fun (op, flow, seq, size, dt) ->
          clock := !clock +. dt;
          { op; flow; seq; size; now = !clock })
        raw)
    (list_size (int_range 1 300) step)

let prop_audit_matches_model =
  QCheck.Test.make ~name:"auditor agrees with the Hashtbl model" ~count:500
    (QCheck.make
       ~print:(fun steps -> String.concat "\n" (List.map show_step steps))
       random_steps)
    audit_agrees

(* A 10k-deep window forces the in-flight table through several
   doublings; seqs are strided (equal modulo the table sizes), may wrap
   past [max_int] and include [min_int]. Every packet is then ACKed or
   lost in random order with dup ACKs of delivered seqs interleaved, and
   some delivered seqs are sent again and ACKed (a legal resend). *)
let prop_audit_deep_window =
  let gen =
    QCheck.Gen.(
      triple
        (oneofl [ 1; -1; 64; 1024; -4096 ])
        (oneofl [ 0; -3; max_int - 5000; min_int + 7 ])
        (int_bound 1_000_000))
  in
  QCheck.Test.make ~name:"auditor agrees with the model on a 10k window"
    ~count:8
    (QCheck.make
       ~print:(fun (stride, base, seed) ->
         Printf.sprintf "stride=%d base=%d seed=%d" stride base seed)
       gen)
    (fun (stride, base, seed) ->
      let n = 10_000 in
      let rng = Random.State.make [| seed |] in
      let seqs = Array.init n (fun i -> base + (i * stride)) in
      let clock = ref 0.0 in
      let step op flow seq =
        clock := !clock +. 1e-6;
        { op; flow; seq; size = 1500; now = !clock }
      in
      let sends = Array.to_list (Array.map (step Op_sent 0) seqs) in
      let order = Array.copy seqs in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- x
      done;
      let delivered = ref [] in
      let drains =
        List.concat_map
          (fun seq ->
            if Random.State.int rng 5 = 0 then [ step Op_loss 0 seq ]
            else begin
              delivered := seq :: !delivered;
              let ack = step Op_ack 0 seq in
              if Random.State.int rng 4 = 0 then [ ack; step Op_dup 0 seq ]
              else [ ack ]
            end)
          (Array.to_list order)
      in
      let resends =
        List.concat_map
          (fun seq ->
            if Random.State.int rng 10 = 0 then
              [ step Op_sent 0 seq; step Op_ack 0 seq ]
            else [])
          !delivered
      in
      audit_agrees (sends @ drains @ resends))

(* ---------- runner integration ---------- *)

let standard_cfg ?loss_rate ?schedule ?reorder_prob ?dup_prob () =
  base ?loss_rate ?schedule ?reorder_prob ?dup_prob ~buffer:50_000 ()

let test_runner_outage_gap_and_recovery () =
  let cfg =
    standard_cfg ~schedule:[ (1.0, Link.Down { duration = 2.0; flush = false }) ] ()
  in
  let r = Runner.create ~seed:5 cfg in
  let audit = Runner.attach_audit r in
  let f =
    Runner.add_flow r ~stop:5.0 ~label:"c" ~factory:(Proteus_cc.Cubic.factory ())
  in
  Runner.run r ~until:7.0;
  Audit.assert_quiesced audit;
  let series = Flow_stats.throughput_series (Runner.stats f) ~bin:0.25 ~until:5.0 in
  let sum ~t0 ~t1 =
    Array.fold_left
      (fun acc (t, v) -> if t >= t0 && t < t1 then acc +. v else acc)
      0.0 series
  in
  (* ACKs of pre-outage packets land within ~1 RTT of the window start;
     after that the link is silent until it comes back at t=3. *)
  check_float "silent during outage" 0.0 (sum ~t0:1.25 ~t1:3.0);
  if sum ~t0:3.0 ~t1:5.0 <= 0.0 then Alcotest.fail "no recovery after outage"

let test_runner_dup_and_reorder_audited () =
  let cfg =
    standard_cfg ~loss_rate:0.03 ~reorder_prob:0.2 ~dup_prob:0.2 ()
  in
  let r = Runner.create ~seed:6 cfg in
  let audit = Runner.attach_audit r in
  let f =
    Runner.add_flow r ~stop:6.0 ~label:"c" ~factory:(Proteus_cc.Cubic.factory ())
  in
  Runner.run r ~until:8.0;
  Audit.assert_quiesced audit;
  let st = Runner.stats f in
  if Flow_stats.packets_dup_acked st = 0 then
    Alcotest.fail "dup knob produced no duplicate ACKs";
  if Flow_stats.packets_acked st = 0 then Alcotest.fail "no ACKs";
  (* Duplicates must not count toward goodput conservation. *)
  Alcotest.(check int) "conservation"
    (Flow_stats.packets_sent st)
    (Flow_stats.packets_acked st + Flow_stats.packets_lost st)

(* ---------- ACK knobs on a reverse hop of a two-hop chain ---------- *)

module Trace = Proteus_obs.Trace

(* One paced 5 Mbps flow end to end over a two-hop 10 Mbps chain whose
   first reverse hop (link 3, the reverse of hop 1) is [rev] and whose
   second forward hop is [fwd] (clean by default). The pacer
   never builds a queue, so with clean links every RTT is the same.
   Returns the primary ACKs' sequence numbers in delivery order, the
   number of duplicate ACKs, and the RTT samples. *)
let rev_hop_run ?fwd rev =
  let cfg = base ~buffer:150_000 () in
  let topo =
    Topology.chain ~rev:[ cfg; rev ] [ cfg; Option.value fwd ~default:cfg ]
  in
  let trace = Trace.create ~capacity:(1 lsl 16) () in
  let r = Runner.create_topo ~seed:5 ~trace topo in
  let audit = Runner.attach_audit r in
  let f =
    Runner.add_flow r ~stop:3.0 ~label:"paced"
      ~factory:(Proteus_cc.Blaster.factory ~rate_mbps:5.0)
  in
  Runner.run r ~until:4.0;
  Audit.assert_quiesced audit;
  Alcotest.(check int) "no trace drops" 0 (Trace.dropped trace);
  let acks = ref [] and dups = ref 0 in
  Trace.iter trace ~f:(fun (e : Trace.event) ->
      match e.kind with
      | Trace.Ack -> acks := e.seq :: !acks
      | Trace.Dup_ack -> incr dups
      | _ -> ());
  let rtts = Flow_stats.rtt_samples (Runner.stats f) ~t0:0.0 ~t1:infinity in
  (Array.of_list (List.rev !acks), !dups, rtts)

let out_of_order seqs =
  let n = ref 0 in
  for i = 1 to Array.length seqs - 1 do
    if seqs.(i) < seqs.(i - 1) then incr n
  done;
  !n

let spread a = Array.fold_left Float.max a.(0) a -. Array.fold_left Float.min a.(0) a

let test_rev_hop_clean () =
  let seqs, dups, rtts = rev_hop_run (base ()) in
  Alcotest.(check bool) "delivered" true (Array.length seqs > 500);
  Alcotest.(check int) "in order" 0 (out_of_order seqs);
  Alcotest.(check int) "no duplicates" 0 dups;
  check_float ~eps:1e-9 "constant RTT" 0.0 (spread rtts)

let test_rev_hop_noise () =
  let _, _, rtts =
    rev_hop_run (base ~noise:(Noise.Gaussian { sigma_ms = 3.0 }) ())
  in
  if spread rtts < 0.005 then
    Alcotest.failf "reverse-hop noise left the RTT spread at %.6f s"
      (spread rtts)

let test_rev_hop_reorder () =
  let seqs, _, _ =
    rev_hop_run (base ~reorder_prob:0.2 ~reorder_extra_ms:8.0 ())
  in
  if out_of_order seqs = 0 then
    Alcotest.fail "reverse-hop reordering delivered every ACK in order"

let test_rev_hop_dup () =
  let _, dups, _ = rev_hop_run (base ~dup_prob:0.1 ()) in
  if dups = 0 then Alcotest.fail "reverse-hop dup knob produced no Dup_ack"

(* An RTT cut on the reverse hop (80 ms -> 10 ms one round trip) would
   let ACKs computed after the cut overtake earlier ones; the FIFO clamp
   keeps the flow's ACKs in order while the RTT still drops. The same
   cut on the forward hop as well (a mirrored link, as on a dumbbell)
   relies on the forward wire's clamp too. *)
let test_rev_hop_rtt_cut () =
  let cut = base ~rtt:80.0 ~schedule:[ (1.0, Link.Set_rtt 10.0) ] () in
  List.iter
    (fun (what, fwd) ->
      let seqs, _, rtts = rev_hop_run ?fwd cut in
      Alcotest.(check int) (what ^ ": in order across the cut") 0
        (out_of_order seqs);
      let last = rtts.(Array.length rtts - 1) in
      if last >= rtts.(0) -. 0.03 then
        Alcotest.failf "%s: RTT did not drop after the cut (%.4f -> %.4f)"
          what rtts.(0) last)
    [ ("reverse hop", None); ("both directions", Some cut) ]

(* ---------- pause/resume x finite flows (satellite) ---------- *)

let test_pause_with_bytes_in_flight () =
  let completions = ref 0 in
  let r = Runner.create (standard_cfg ()) in
  let f =
    Runner.add_flow r ~label:"fin" ~factory:(Proteus_cc.Cubic.factory ())
      ~size_bytes:500_000
      ~on_complete:(fun ~now:_ -> incr completions)
  in
  Runner.run r ~until:0.3;
  let st = Runner.stats f in
  let sent0 = Flow_stats.packets_sent st in
  let acked0 = Flow_stats.packets_acked st in
  if sent0 <= acked0 then Alcotest.fail "expected bytes in flight at pause";
  Runner.pause r f;
  Runner.run r ~until:1.0;
  (* Paused: nothing new leaves, but in-flight ACKs still drain. *)
  Alcotest.(check int) "no sends while paused" sent0 (Flow_stats.packets_sent st);
  if Flow_stats.packets_acked st <= acked0 then
    Alcotest.fail "in-flight packets did not drain during pause";
  Alcotest.(check int) "not complete while paused" 0 !completions;
  Runner.resume r f;
  Runner.run r ~until:30.0;
  Alcotest.(check bool) "completes after resume" true (Runner.is_complete f);
  Alcotest.(check int) "completion fired exactly once" 1 !completions

let test_resume_after_stop_sends_nothing () =
  let r = Runner.create (standard_cfg ()) in
  let f =
    Runner.add_flow r ~stop:2.0 ~label:"w" ~factory:(Proteus_cc.Cubic.factory ())
  in
  Runner.run r ~until:1.0;
  Runner.pause r f;
  Runner.run r ~until:3.0;
  let sent_at_stop = Flow_stats.packets_sent (Runner.stats f) in
  Runner.resume r f;
  Runner.run r ~until:5.0;
  Alcotest.(check int) "no sends past stop" sent_at_stop
    (Flow_stats.packets_sent (Runner.stats f))

let test_completion_once_under_loss_and_pauses () =
  let completions = ref 0 in
  let r = Runner.create ~seed:17 (standard_cfg ~loss_rate:0.05 ()) in
  let f =
    Runner.add_flow r ~label:"fin" ~factory:(Proteus_cc.Cubic.factory ())
      ~size_bytes:300_000
      ~on_complete:(fun ~now:_ -> incr completions)
  in
  let t = ref 0.2 in
  while (not (Runner.is_complete f)) && !t < 60.0 do
    Runner.pause r f;
    Runner.run r ~until:(!t +. 0.05);
    Runner.resume r f;
    t := !t +. 0.25;
    Runner.run r ~until:!t
  done;
  Runner.run r ~until:(!t +. 30.0);
  Alcotest.(check bool) "completes despite pause churn" true
    (Runner.is_complete f);
  (* Pause/resume after completion must not re-fire the callback. *)
  Runner.pause r f;
  Runner.resume r f;
  Runner.run r ~until:(!t +. 31.0);
  Alcotest.(check int) "exactly one completion" 1 !completions

(* ---------- property: random schedules never trip the auditor ---------- *)

let cc_all =
  [
    ("cubic", fun () -> Proteus_cc.Cubic.factory ());
    ("bbr", fun () -> Proteus_cc.Bbr.factory ());
    ("copa", fun () -> Proteus_cc.Copa.factory ());
    ("ledbat", fun () -> Proteus_cc.Ledbat.factory ());
    ("proteus-p", fun () -> Proteus.Presets.proteus_p ());
    ("proteus-s", fun () -> Proteus.Presets.proteus_s ());
  ]

(* Random impairment schedule over [0.5, 4.5]: steps, loss-model swaps
   and non-overlapping outages, so every event (including parked loss
   notifications) lands well before the drain horizon. *)
let random_schedule rng =
  let entries = ref [] in
  let tcur = ref 0.5 in
  let n = 2 + Rng.int rng 4 in
  for _ = 1 to n do
    if !tcur < 4.5 then begin
      let time = !tcur in
      let imp =
        match Rng.int rng 6 with
        | 0 -> Link.Set_bandwidth (3.0 +. Rng.float rng 47.0)
        | 1 -> Link.Set_rtt (5.0 +. Rng.float rng 75.0)
        | 2 -> Link.Set_buffer (20_000 + Rng.int rng 280_000)
        | 3 -> Link.Set_loss (Link.Iid (Rng.float rng 0.05))
        | 4 ->
            Link.Set_loss
              (Link.Gilbert_elliott
                 {
                   p_good_bad = 0.001 +. Rng.float rng 0.05;
                   p_bad_good = 0.05 +. Rng.float rng 0.4;
                   loss_good = Rng.float rng 0.01;
                   loss_bad = 0.2 +. Rng.float rng 0.7;
                 })
        | _ ->
            let d = 0.1 +. Rng.float rng 0.6 in
            tcur := !tcur +. d;
            Link.Down { duration = d; flush = Rng.bool rng }
      in
      entries := (time, imp) :: !entries;
      tcur := !tcur +. 0.2 +. Rng.float rng 0.8
    end
  done;
  List.rev !entries

let random_cfg rng =
  Link.config
    ~loss_rate:(Rng.float rng 0.02)
    ~reorder_prob:(Rng.float rng 0.2)
    ~dup_prob:(Rng.float rng 0.1)
    ~noise:(if Rng.bool rng then Noise.default_wifi else Noise.None_)
    ~schedule:(random_schedule rng)
    ~bandwidth_mbps:(5.0 +. Rng.float rng 45.0)
    ~rtt_ms:(10.0 +. Rng.float rng 60.0)
    ~buffer_bytes:(30_000 + Rng.int rng 270_000)
    ()

let test_property_random_schedules_audit_clean () =
  let n_schedules = 5 in
  for si = 0 to n_schedules - 1 do
    let cfg = random_cfg (Rng.create ~seed:(1000 + si)) in
    List.iteri
      (fun ci (name, make) ->
        let r = Runner.create ~seed:((100 * si) + ci) cfg in
        let audit = Runner.attach_audit r in
        let _a = Runner.add_flow r ~stop:6.0 ~label:name ~factory:(make ()) in
        let _b =
          Runner.add_flow r ~stop:6.0 ~label:"cross"
            ~factory:(Proteus_cc.Cubic.factory ())
        in
        (try
           Runner.run r ~until:9.0;
           Audit.assert_quiesced audit
         with Audit.Violation msg ->
           Alcotest.failf "schedule %d, cc %s: %s" si name msg))
      cc_all
  done

(* ---------- determinism ---------- *)

let outage_fingerprint seed =
  let cfg =
    standard_cfg ~loss_rate:0.01 ~reorder_prob:0.1 ~dup_prob:0.1
      ~schedule:[ (1.0, Link.Down { duration = 2.0; flush = false }) ]
      ()
  in
  let r = Runner.create ~seed cfg in
  let audit = Runner.attach_audit r in
  let f =
    Runner.add_flow r ~stop:5.0 ~label:"d" ~factory:(Proteus_cc.Cubic.factory ())
  in
  Runner.run r ~until:7.0;
  Audit.assert_quiesced audit;
  let st = Runner.stats f in
  ( Flow_stats.packets_sent st,
    Flow_stats.packets_acked st,
    Flow_stats.packets_lost st,
    Flow_stats.packets_dup_acked st )

let test_schedule_determinism () =
  let a = outage_fingerprint 99 and b = outage_fingerprint 99 in
  if a <> b then Alcotest.fail "same seed produced different fault runs"

let test_parallel_fault_sweep_identical () =
  let seeds = List.init 8 (fun i -> 40 + i) in
  let seq = List.map outage_fingerprint seeds in
  let pool = Pool.create ~jobs:4 in
  let par = Pool.map pool outage_fingerprint seeds in
  Pool.shutdown pool;
  if seq <> par then Alcotest.fail "parallel fault sweep diverged"

let test_split_at_order_independent () =
  let mk () = Rng.create ~seed:123 in
  (* Draw from the parent between derivations: keyed children must not
     care. *)
  let r1 = mk () in
  let a1 = Rng.float (Rng.split_at r1 ~key:5) 1.0 in
  let r2 = mk () in
  ignore (Rng.split r2);
  ignore (Rng.split_at r2 ~key:9);
  let a2 = Rng.float (Rng.split_at r2 ~key:5) 1.0 in
  check_float "split_at stable under sibling churn" a1 a2

let suite =
  [
    ("config validation", `Quick, test_config_validation);
    ("schedule validation", `Quick, test_schedule_validation);
    ("noise precondition", `Quick, test_noise_nondecreasing_precondition);
    ("GE average formula", `Quick, test_ge_average_loss_formula);
    ("GE empirical loss/bursts", `Quick, test_ge_empirical_loss_and_bursts);
    ("loss notify after RTT step", `Quick, test_loss_notify_after_rtt_step);
    ("outage window", `Quick, test_outage_window);
    ("outage drain", `Quick, test_outage_drain_shifts_departures);
    ("outage flush", `Quick, test_outage_flush_discards_queue);
    ("bandwidth step", `Quick, test_bandwidth_step);
    ("bandwidth step backlog", `Quick, test_bandwidth_step_preserves_backlog);
    ("rtt step ordering", `Quick, test_rtt_step_keeps_acks_ordered);
    ("reordering knob", `Quick, test_reordering_knob);
    ("duplication knob", `Quick, test_duplication_knob);
    ("audit happy path", `Quick, test_audit_happy_path);
    ("audit double delivery", `Quick, test_audit_detects_double_delivery);
    ("audit phantom delivery", `Quick, test_audit_detects_phantom_delivery);
    ("audit duplicate send", `Quick, test_audit_detects_duplicate_send);
    ("audit time reversal", `Quick, test_audit_detects_time_reversal);
    ("audit backlog", `Quick, test_audit_detects_bad_backlog);
    ("audit quiesce leak", `Quick, test_audit_detects_leak_at_quiesce);
    ("audit dup semantics", `Quick, test_audit_dup_requires_prior_delivery);
    ("audit trace bounded", `Quick, test_audit_trace_ring_bounded);
    ("audit non-finite time", `Quick, test_audit_rejects_non_finite_time);
    QCheck_alcotest.to_alcotest prop_audit_matches_model;
    QCheck_alcotest.to_alcotest prop_audit_deep_window;
    ("runner outage gap", `Quick, test_runner_outage_gap_and_recovery);
    ("runner dup/reorder audited", `Quick, test_runner_dup_and_reorder_audited);
    ("reverse hop: no knobs, no ACK effects", `Quick, test_rev_hop_clean);
    ("reverse hop: noise widens RTT spread", `Quick, test_rev_hop_noise);
    ("reverse hop: reordering", `Quick, test_rev_hop_reorder);
    ("reverse hop: duplication", `Quick, test_rev_hop_dup);
    ("reverse hop: RTT cut keeps ACK order", `Quick, test_rev_hop_rtt_cut);
    ("pause with in-flight bytes", `Quick, test_pause_with_bytes_in_flight);
    ("resume after stop", `Quick, test_resume_after_stop_sends_nothing);
    ("completion fires once", `Quick, test_completion_once_under_loss_and_pauses);
    ("property: schedules audit-clean", `Quick,
     test_property_random_schedules_audit_clean);
    ("schedule determinism", `Quick, test_schedule_determinism);
    ("parallel sweep identical", `Quick, test_parallel_fault_sweep_identical);
    ("split_at order-independent", `Quick, test_split_at_order_independent);
  ]
