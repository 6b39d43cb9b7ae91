(* Tests for the baseline congestion controllers. Unit tests drive the
   Sender calls directly; integration tests run flows through the
   simulator. *)

open Proteus_net
module Cc = Proteus_cc

let env () = Sender.make_env ~rng:(Proteus_stats.Rng.create ~seed:1) ~mtu:1500 ()

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------- CUBIC / LEDBAT unit ----------

   Both are datapath fold programs. These tests drive a program's ACK
   fold and its loss handler on a register file the way the adapter
   does: the fold on each ACK, the handler on a loss report. *)

module Dp = Proteus.Datapath

type fold_sender = {
  prog : Dp.program;
  handler : Dp.handler;
  regs : float array;
  sigs : float array;
}

let load prog handler =
  {
    prog;
    handler;
    regs = Array.map (fun r -> r.Dp.r_init) prog.Dp.p_regs;
    sigs = Array.make 3 0.0 (* one slot per Dp.signal *);
  }

let cubic () = load (Cc.Cubic.program (env ())) Cc.Cubic.handler
let ledbat ?params () = load (Cc.Ledbat.program ?params (env ())) Cc.Ledbat.handler
let cwnd s = s.regs.(s.prog.Dp.p_cwnd)
let set_sig s signal v = s.sigs.(Dp.signal_index signal) <- v

let ack s ~now ~rtt =
  set_sig s Dp.Now now;
  set_sig s Dp.Rtt_sample rtt;
  set_sig s Dp.Bytes_acked 1500.0;
  s.prog.Dp.p_on_ack s.regs s.sigs

let loss s ~now =
  s.handler
    { Dp.rp_time = now; rp_cause = Dp.Loss_event; rp_seq = 0; rp_regs = s.regs }

let test_cubic_slow_start_growth () =
  let c = cubic () in
  let w0 = cwnd c in
  for _ = 0 to 9 do
    ack c ~now:0.05 ~rtt:0.05
  done;
  check_float "ss +1 per ack" (w0 +. 10.0) (cwnd c)

let test_cubic_loss_halves_ish () =
  let c = cubic () in
  for _ = 0 to 19 do
    ack c ~now:0.05 ~rtt:0.05
  done;
  let before = cwnd c in
  loss c ~now:0.1;
  check_float ~eps:1e-6 "beta reduction" (before *. 0.7) (cwnd c)

let test_cubic_one_reduction_per_rtt () =
  let c = cubic () in
  for _ = 0 to 19 do
    ack c ~now:0.05 ~rtt:0.05
  done;
  let before = cwnd c in
  (* Burst of losses within one RTT: only one decrease. *)
  for _ = 20 to 25 do
    loss c ~now:0.1001
  done;
  check_float ~eps:1e-6 "single halving" (before *. 0.7) (cwnd c)

(* Window blocking is the adapter's job: drive the lowered sender. *)
let test_cubic_blocks_at_window () =
  let c = Cc.Cubic.factory () (env ()) in
  let sent = ref 0 in
  let rec send seq =
    let time = Sender.next_send c ~now:0.0 in
    if time <= 0.0 then begin
      Sender.on_sent c ~now:0.0 ~seq ~size:1500;
      incr sent;
      if seq < 100 then send (seq + 1)
    end
    else if Float.is_finite time then Alcotest.fail "cubic should not pace"
  in
  send 0;
  Alcotest.(check int) "initial window" 10 !sent

let test_ledbat_ramps_below_target () =
  let l = ledbat () in
  let w0 = cwnd l in
  (* Constant low RTT: queuing delay 0, off_target 1, cwnd grows. *)
  for seq = 0 to 49 do
    ack l ~now:((float_of_int seq *. 0.01) +. 0.02) ~rtt:0.02
  done;
  if cwnd l <= w0 then Alcotest.fail "no ramp below target"

let test_ledbat_backs_off_above_target () =
  let l = ledbat () in
  (* Establish base delay of 20 ms, then ram delay up to 200 ms: above
     the 100 ms target, the window must shrink. *)
  for seq = 0 to 19 do
    ack l ~now:((float_of_int seq *. 0.01) +. 0.02) ~rtt:0.02
  done;
  let peak = cwnd l in
  for seq = 20 to 59 do
    ack l ~now:((float_of_int seq *. 0.01) +. 0.2) ~rtt:0.2
  done;
  if cwnd l >= peak then
    Alcotest.failf "no backoff above target: %.2f >= %.2f" (cwnd l) peak

let test_ledbat_base_delay_tracks_min () =
  let l = ledbat () in
  ack l ~now:0.1 ~rtt:0.1;
  check_float "base = first" 0.1 (Cc.Ledbat.base_delay l.regs);
  ack l ~now:0.23 ~rtt:0.03;
  check_float "base tracks min" 0.03 (Cc.Ledbat.base_delay l.regs)

let test_ledbat_latecomer_sees_inflated_base () =
  (* A sender that never observes the empty queue keeps an inflated
     base-delay estimate — the root of the latecomer advantage. *)
  let l = ledbat () in
  for seq = 0 to 9 do
    ack l ~now:(float_of_int seq +. 0.13) ~rtt:0.13
  done;
  check_float "inflated base" 0.13 (Cc.Ledbat.base_delay l.regs)

let test_ledbat_loss_halves () =
  let l = ledbat () in
  for seq = 0 to 49 do
    ack l ~now:((float_of_int seq *. 0.01) +. 0.02) ~rtt:0.02
  done;
  let before = cwnd l in
  loss l ~now:1.0;
  check_float ~eps:1e-6 "halved" (before /. 2.0) (cwnd l)

let test_ledbat_name_carries_target () =
  let name ?params () = Sender.name (Cc.Ledbat.factory ?params () (env ())) in
  Alcotest.(check string) "100ms" "ledbat-100" (name ());
  Alcotest.(check string) "25ms" "ledbat-25"
    (name ~params:Cc.Ledbat.draft_25ms ())

(* ---------- BBR unit ---------- *)

let test_bbr_estimates_on_clean_link () =
  let b = Cc.Bbr.create (env ()) in
  let s = Sender.pack (module Cc.Bbr) b in
  (* Feed a steady 10 Mbps ack stream at 20 ms RTT, with sends and ACKs
     interleaved in true time order (a ~17-packet pipeline), so the
     delivery-rate samples measure the stream, not a 1-packet window. *)
  let dt = 0.0012 (* 1500 B at 10 Mbps *) in
  let n = 500 in
  let events =
    List.concat_map
      (fun seq ->
        let sent = float_of_int seq *. dt in
        [ (sent, `Send seq); (sent +. 0.02, `Ack seq) ])
      (List.init n Fun.id)
    |> List.sort compare
  in
  List.iter
    (fun (time, ev) ->
      match ev with
      | `Send seq -> Sender.on_sent s ~now:time ~seq ~size:1500
      | `Ack seq ->
          Sender.on_ack s ~now:time ~seq ~send_time:(time -. 0.02) ~size:1500
            ~rtt:0.02)
    events;
  check_float ~eps:0.02 "rtprop" 0.02 (Cc.Bbr.rtprop_estimate b);
  let bw_mbps = Units.bytes_per_sec_to_mbps (Cc.Bbr.btlbw_estimate b) in
  if bw_mbps < 8.0 || bw_mbps > 13.0 then
    Alcotest.failf "btlbw estimate %.2f Mbps not ~10" bw_mbps

let test_bbr_paces () =
  let b = Cc.Bbr.create (env ()) in
  let s = Sender.pack (module Cc.Bbr) b in
  if Sender.next_send s ~now:0.0 > 0.0 then
    Alcotest.fail "first packet immediate";
  Sender.on_sent s ~now:0.0 ~seq:0 ~size:1500;
  let t = Sender.next_send s ~now:0.0 in
  if not (Float.is_finite t && t > 0.0) then Alcotest.fail "no pacing gap"

(* ---------- Reno ---------- *)

let test_reno_slow_start_then_ca () =
  let r = Cc.Reno.create (env ()) in
  let s = Sender.pack (module Cc.Reno) r in
  for seq = 0 to 9 do
    Sender.on_sent s ~now:0.0 ~seq ~size:1500;
    Sender.on_ack s ~now:0.05 ~seq ~send_time:0.0 ~size:1500 ~rtt:0.05
  done;
  check_float "ss" 20.0 (Cc.Reno.cwnd_packets r);
  Sender.on_sent s ~now:0.1 ~seq:10 ~size:1500;
  Sender.on_loss s ~now:0.1 ~seq:10 ~send_time:0.1 ~size:1500;
  check_float "halved" 10.0 (Cc.Reno.cwnd_packets r);
  (* Congestion avoidance: +1/cwnd per ack. *)
  Sender.on_sent s ~now:0.3 ~seq:11 ~size:1500;
  Sender.on_ack s ~now:0.35 ~seq:11 ~send_time:0.3 ~size:1500 ~rtt:0.05;
  check_float ~eps:1e-9 "ca" 10.1 (Cc.Reno.cwnd_packets r)

let test_reno_min_cwnd_floor () =
  let r = Cc.Reno.create (env ()) in
  let s = Sender.pack (module Cc.Reno) r in
  for i = 0 to 9 do
    Sender.on_sent s ~now:(float_of_int i) ~seq:i ~size:1500;
    Sender.on_loss s ~now:(float_of_int i +. 0.5) ~seq:i ~send_time:0.0
      ~size:1500
  done;
  if Cc.Reno.cwnd_packets r < 2.0 then Alcotest.fail "window below floor"

(* ---------- BBR state machine ---------- *)

let test_bbr_probe_rtt_on_stale_rtprop () =
  let b = Cc.Bbr.create (env ()) in
  let s = Sender.pack (module Cc.Bbr) b in
  (* Steady acks with RTT slowly rising: the 10 s rtprop filter goes
     stale and BBR must enter PROBE_RTT at some point. *)
  let probed = ref false in
  for seq = 0 to 1400 do
    let now = float_of_int seq *. 0.01 in
    Sender.on_sent s ~now ~seq ~size:1500;
    Sender.on_ack s ~now:(now +. 0.02) ~seq ~send_time:now ~size:1500
      ~rtt:(0.02 +. (0.000005 *. float_of_int seq));
    if Cc.Bbr.is_probing_rtt b then probed := true
  done;
  Alcotest.(check bool) "entered probe-rtt" true !probed

(* ---------- COPA / integration ---------- *)

let standard_cfg ?loss_rate ?noise ?(bw = 20.0) ?(buffer = 150_000) () =
  Link.config ?loss_rate ?noise ~bandwidth_mbps:bw ~rtt_ms:30.0
    ~buffer_bytes:buffer ()

let single_flow_tput ?loss_rate ?noise ?bw ?buffer factory =
  let r = Runner.create (standard_cfg ?loss_rate ?noise ?bw ?buffer ()) in
  let f = Runner.add_flow r ~label:"x" ~factory in
  Runner.run r ~until:25.0;
  Flow_stats.throughput_mbps (Runner.stats f) ~t0:10.0 ~t1:25.0

let test_protocols_saturate_alone () =
  List.iter
    (fun (name, factory, min_frac) ->
      let tput = single_flow_tput factory in
      if tput < 20.0 *. min_frac then
        Alcotest.failf "%s only reached %.2f of 20 Mbps" name tput)
    [
      ("cubic", Cc.Cubic.factory (), 0.9);
      ("bbr", Cc.Bbr.factory (), 0.85);
      ("copa", Cc.Copa.factory (), 0.9);
      ("ledbat", Cc.Ledbat.factory (), 0.9);
      ("reno", Cc.Reno.factory (), 0.9);
    ]

let test_copa_low_latency () =
  let r = Runner.create (standard_cfg ()) in
  let f = Runner.add_flow r ~label:"copa" ~factory:(Cc.Copa.factory ()) in
  Runner.run r ~until:25.0;
  match Flow_stats.rtt_percentile (Runner.stats f) ~t0:10.0 ~t1:25.0 ~p:95.0 with
  | Some p95 ->
      (* COPA should keep queueing low: well under half the 60 ms max
         buffer delay on this link. *)
      if p95 > 0.055 then Alcotest.failf "copa p95 rtt %.4f too high" p95
  | None -> Alcotest.fail "no rtt samples"

let test_cubic_fills_buffer () =
  let r = Runner.create (standard_cfg ()) in
  let f = Runner.add_flow r ~label:"cubic" ~factory:(Cc.Cubic.factory ()) in
  Runner.run r ~until:25.0;
  match Flow_stats.rtt_percentile (Runner.stats f) ~t0:10.0 ~t1:25.0 ~p:95.0 with
  | Some p95 ->
      if p95 < 0.06 then
        Alcotest.failf "cubic p95 rtt %.4f suspiciously low (no bufferbloat?)"
          p95
  | None -> Alcotest.fail "no rtt samples"

let test_loss_tolerance_ranking () =
  (* Under 2% random loss: BBR and COPA keep throughput, LEDBAT (and
     CUBIC) collapse. This is the essence of Fig. 4. *)
  let with_loss f = single_flow_tput ~loss_rate:0.02 f in
  let bbr = with_loss (Cc.Bbr.factory ()) in
  let ledbat = with_loss (Cc.Ledbat.factory ()) in
  if bbr < 15.0 then Alcotest.failf "bbr collapsed under random loss: %.2f" bbr;
  if ledbat > 8.0 then
    Alcotest.failf "ledbat should collapse under loss, got %.2f" ledbat

let test_bbr_s_yields_to_bbr () =
  let cfg = Link.config ~bandwidth_mbps:50.0 ~rtt_ms:30.0
      ~buffer_bytes:375_000 () in
  let r = Runner.create cfg in
  let p = Runner.add_flow r ~label:"bbr" ~factory:(Cc.Bbr.factory ()) in
  let s =
    Runner.add_flow r ~start:5.0 ~label:"bbr-s"
      ~factory:(Cc.Bbr.scavenger_factory ())
  in
  Runner.run r ~until:60.0;
  let tp = Flow_stats.throughput_mbps (Runner.stats p) ~t0:20.0 ~t1:60.0 in
  let ts = Flow_stats.throughput_mbps (Runner.stats s) ~t0:20.0 ~t1:60.0 in
  (* Partial yielding is the expected shape (the paper itself does not
     claim BBR-S is a robust scavenger, §7.1) — require a clear skew. *)
  if tp < 1.5 *. ts then
    Alcotest.failf "bbr-s did not yield: primary %.2f vs scavenger %.2f" tp ts

let test_blaster_fixed_rate () =
  let tput = single_flow_tput (Cc.Blaster.factory ~rate_mbps:5.0) in
  check_float ~eps:0.3 "blaster rate" 5.0 tput

(* ---------- LEDBAT RFC 6817 details ---------- *)

let test_ledbat_off_target_proportional () =
  (* With queuing delay at exactly half the target, the per-ack gain is
     half the max ramp (GAIN * off_target * bytes / cwnd). *)
  let l = ledbat () in
  (* Base delay 20 ms. *)
  ack l ~now:0.02 ~rtt:0.02;
  (* Queuing 50 ms = half the 100 ms target. The RFC's current-delay
     filter takes the min of the last 4 samples, so burn three 70 ms
     samples in first. *)
  for seq = 1 to 3 do
    ack l ~now:((0.1 *. float_of_int seq) +. 0.07) ~rtt:0.07
  done;
  let w0 = cwnd l in
  ack l ~now:0.57 ~rtt:0.07;
  let gain = cwnd l -. w0 in
  check_float ~eps:1e-9 "half ramp" (0.5 /. w0) gain

let test_ledbat_decrease_clamped () =
  (* A wildly inflated delay may shrink the window by at most one
     packet per ack (the RFC's decrease clamp). *)
  let l = ledbat () in
  for seq = 0 to 29 do
    ack l ~now:((float_of_int seq *. 0.01) +. 0.02) ~rtt:0.02
  done;
  let before = cwnd l in
  ack l ~now:3.0 ~rtt:2.0;
  if before -. cwnd l > 1.0 +. 1e-9 then
    Alcotest.failf "decrease %f exceeds one packet" (before -. cwnd l)

let test_ledbat_25_yields_earlier_than_100 () =
  (* At 60 ms of queueing, LEDBAT-25 is over target (shrinks) while
     LEDBAT-100 is under target (grows). *)
  let drive l =
    for seq = 0 to 9 do
      ack l ~now:((float_of_int seq *. 0.01) +. 0.02) ~rtt:0.02
    done;
    let w = cwnd l in
    for seq = 10 to 19 do
      ack l ~now:((float_of_int seq *. 0.01) +. 0.08) ~rtt:0.08
    done;
    cwnd l -. w
  in
  let d100 = drive (ledbat ()) in
  let d25 = drive (ledbat ~params:Cc.Ledbat.draft_25ms ()) in
  if d25 >= 0.0 then Alcotest.failf "ledbat-25 should shrink, grew %f" d25;
  if d100 <= 0.0 then Alcotest.failf "ledbat-100 should grow, shrank %f" d100

(* ---------- no-NaN property for every packed sender ----------

   The Sender contract forbids a NaN next-send time. Random event
   sequences drive each registry protocol, Reno and a random-rate
   blaster through its packed calls: sends whenever the sender allows,
   ACKs and duplicate ACKs with RTT samples down to exactly 0, and
   losses of seqs that may not be outstanding at all. *)

type op =
  | Tick of float
  | Send
  | Ack of int * float
  | Dup_ack of int * float
  | Loss of int

let gen_rtt =
  QCheck.Gen.(
    frequency
      [
        (1, return 0.0);
        (1, float_bound_inclusive 1e-6);
        (3, float_bound_inclusive 0.3);
      ])

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun d -> Tick d) (oneof [ return 0.0; float_range 0.0 0.05 ]));
        (4, return Send);
        (3, map2 (fun i r -> Ack (i, r)) nat gen_rtt);
        (1, map2 (fun i r -> Dup_ack (i, r)) nat gen_rtt);
        (1, map (fun i -> Loss i) (int_range (-2) 60));
      ])

let print_op = function
  | Tick d -> Printf.sprintf "Tick %g" d
  | Send -> "Send"
  | Ack (i, r) -> Printf.sprintf "Ack (%d, %g)" i r
  | Dup_ack (i, r) -> Printf.sprintf "Dup_ack (%d, %g)" i r
  | Loss i -> Printf.sprintf "Loss %d" i

let arb_drive =
  QCheck.make
    ~print:(fun (seed, rate, ops) ->
      Printf.sprintf "seed=%d blaster=%g ops=[%s]" seed rate
        (String.concat "; " (List.map print_op ops)))
    QCheck.Gen.(
      triple (int_bound 10_000) (float_range 0.1 1000.0)
        (list_size (int_range 1 200) gen_op))

let drive_no_nan name factory ~seed ops =
  let s =
    factory (Sender.make_env ~rng:(Proteus_stats.Rng.create ~seed) ~mtu:1500 ())
  in
  let now = ref 0.0 and next_seq = ref 0 in
  let outstanding = ref [] and acked = ref [] in
  let check () =
    let t = Sender.next_send s ~now:!now in
    if Float.is_nan t then
      QCheck.Test.fail_reportf "%s: NaN next_send at %g" name !now;
    t
  in
  let take i l =
    let k = i mod List.length l in
    (List.nth l k, List.filteri (fun j _ -> j <> k) l)
  in
  ignore (check ());
  List.iter
    (fun op ->
      (match op with
      | Tick d -> now := !now +. d
      | Send ->
          if check () <= !now then begin
            Sender.on_sent s ~now:!now ~seq:!next_seq ~size:1500;
            outstanding := (!next_seq, !now) :: !outstanding;
            incr next_seq
          end
      | Ack (i, rtt) when !outstanding <> [] ->
          let ((seq, send_time) as p), rest = take i !outstanding in
          outstanding := rest;
          acked := p :: !acked;
          Sender.on_ack s ~now:!now ~seq ~send_time ~size:1500 ~rtt
      | Dup_ack (i, rtt) when !acked <> [] ->
          let (seq, send_time), _ = take i !acked in
          Sender.on_ack s ~now:!now ~seq ~send_time ~size:1500 ~rtt
      | Ack _ | Dup_ack _ -> ()
      | Loss i -> (
          match List.partition (fun (q, _) -> q = i) !outstanding with
          | [ (seq, send_time) ], rest ->
              outstanding := rest;
              Sender.on_loss s ~now:!now ~seq ~send_time ~size:1500
          | _ ->
              (* Not outstanding: never sent, already acked or lost. *)
              Sender.on_loss s ~now:!now ~seq:i ~send_time:!now ~size:1500));
      ignore (check ()))
    ops

let prop_no_nan_next_send (seed, rate, ops) =
  let registry =
    List.map
      (fun name ->
        (name, Result.get_ok (Proteus_scenario.Protocols.factory name)))
      (Proteus_scenario.Protocols.known
      @ [ Printf.sprintf "blaster=%g" rate ])
  in
  List.iter
    (fun (name, factory) -> drive_no_nan name factory ~seed ops)
    (("reno", Cc.Reno.factory ()) :: registry);
  true

let qcheck_props =
  [
    QCheck.Test.make ~count:100 ~name:"hand-written senders never yield NaN"
      arb_drive prop_no_nan_next_send;
  ]

let rfc_suite =
  [
    ("ledbat off-target proportional", `Quick, test_ledbat_off_target_proportional);
    ("ledbat decrease clamp", `Quick, test_ledbat_decrease_clamped);
    ("ledbat 25 vs 100 target", `Quick, test_ledbat_25_yields_earlier_than_100);
  ]

let suite =
  [
    ("cubic slow start", `Quick, test_cubic_slow_start_growth);
    ("cubic loss beta", `Quick, test_cubic_loss_halves_ish);
    ("cubic one reduction/rtt", `Quick, test_cubic_one_reduction_per_rtt);
    ("cubic window blocks", `Quick, test_cubic_blocks_at_window);
    ("ledbat ramps", `Quick, test_ledbat_ramps_below_target);
    ("ledbat backs off", `Quick, test_ledbat_backs_off_above_target);
    ("ledbat base min", `Quick, test_ledbat_base_delay_tracks_min);
    ("ledbat latecomer base", `Quick, test_ledbat_latecomer_sees_inflated_base);
    ("ledbat loss", `Quick, test_ledbat_loss_halves);
    ("ledbat names", `Quick, test_ledbat_name_carries_target);
    ("bbr estimates", `Quick, test_bbr_estimates_on_clean_link);
    ("bbr paces", `Quick, test_bbr_paces);
    ("bbr probe-rtt staleness", `Quick, test_bbr_probe_rtt_on_stale_rtprop);
    ("reno ss/ca/loss", `Quick, test_reno_slow_start_then_ca);
    ("reno floor", `Quick, test_reno_min_cwnd_floor);
    ("protocols saturate", `Slow, test_protocols_saturate_alone);
    ("copa low latency", `Slow, test_copa_low_latency);
    ("cubic bufferbloat", `Slow, test_cubic_fills_buffer);
    ("loss tolerance ranking", `Slow, test_loss_tolerance_ranking);
    ("bbr-s yields", `Slow, test_bbr_s_yields_to_bbr);
    ("blaster rate", `Slow, test_blaster_fixed_rate);
  ]
  @ rfc_suite
  @ List.map QCheck_alcotest.to_alcotest qcheck_props
