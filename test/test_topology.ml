(* Multi-hop topology tests.

   Two layers: (1) seeded golden digests pinning dumbbell runs (the
   one-hop chain) byte for byte, and (2) multi-hop semantics: per-hop
   conservation under audit, per-hop drop attribution, and
   reverse-path congestion. *)

module Net = Proteus_net
module Link = Net.Link
module Topology = Net.Topology
module Rng = Proteus_stats.Rng
module Trace = Proteus_obs.Trace

let fmt_f v = Printf.sprintf "%.17g" v

let flow_digest f =
  let st = Net.Runner.stats f in
  let rtts = Net.Flow_stats.rtt_samples st ~t0:0.0 ~t1:infinity in
  let rtt_sum = Array.fold_left ( +. ) 0.0 rtts in
  Printf.sprintf
    "%s sent=%d acked=%d lost=%d dup=%d bytes=%s rtt_n=%d rtt_sum=%s \
     first=%s last=%s done=%s"
    (Net.Runner.label f)
    (Net.Flow_stats.packets_sent st)
    (Net.Flow_stats.packets_acked st)
    (Net.Flow_stats.packets_lost st)
    (Net.Flow_stats.packets_dup_acked st)
    (fmt_f (Net.Flow_stats.bytes_acked st))
    (Array.length rtts) (fmt_f rtt_sum)
    (match Net.Flow_stats.first_ack_time st with
    | Some t -> fmt_f t
    | None -> "-")
    (match Net.Flow_stats.last_ack_time st with
    | Some t -> fmt_f t
    | None -> "-")
    (match Net.Runner.completion_time f with
    | Some t -> fmt_f t
    | None -> "-")

(* ---------- dumbbell parity (golden digests, pre-refactor runner) ---------- *)

let impaired_cfg () =
  Link.config ~reorder_prob:0.05 ~dup_prob:0.02
    ~loss:
      (Link.Gilbert_elliott
         { p_good_bad = 0.02; p_bad_good = 0.3; loss_good = 0.0; loss_bad = 0.4 })
    ~schedule:
      [
        (2.0, Link.Down { duration = 1.0; flush = false });
        (4.0, Link.Set_bandwidth 5.0);
        (6.0, Link.Set_bandwidth 20.0);
      ]
    ~bandwidth_mbps:20.0 ~rtt_ms:30.0 ~buffer_bytes:150_000 ()

let golden_scenarios : (string * (unit -> string)) list =
  [
    ( "bulk",
      fun () ->
        let cfg =
          Link.config ~loss_rate:0.01 ~noise:Net.Noise.default_wifi
            ~bandwidth_mbps:20.0 ~rtt_ms:30.0 ~buffer_bytes:150_000 ()
        in
        let r = Net.Runner.create_topo ~seed:7 (Topology.dumbbell cfg) in
        let a =
          Net.Runner.add_flow r ~label:"cubic"
            ~factory:(Proteus_cc.Cubic.factory ())
        in
        let b =
          Net.Runner.add_flow r ~start:2.0 ~label:"proteus-s"
            ~factory:(Proteus.Presets.proteus_s ())
        in
        Net.Runner.run r ~until:10.0;
        flow_digest a ^ " | " ^ flow_digest b );
    ( "finite",
      fun () ->
        let cfg =
          Link.config ~loss_rate:0.02 ~bandwidth_mbps:10.0 ~rtt_ms:20.0
            ~buffer_bytes:50_000 ()
        in
        let r = Net.Runner.create_topo ~seed:13 (Topology.dumbbell cfg) in
        let a =
          Net.Runner.add_flow r ~label:"short" ~size_bytes:150_000
            ~factory:(Proteus_cc.Cubic.factory ())
        in
        let b =
          Net.Runner.add_flow r ~label:"bulk"
            ~factory:(Proteus_cc.Bbr.factory ())
        in
        Net.Runner.run r ~until:20.0;
        flow_digest a ^ " | " ^ flow_digest b );
    ( "pause-resume",
      fun () ->
        let cfg =
          Link.config ~bandwidth_mbps:10.0 ~rtt_ms:20.0 ~buffer_bytes:50_000 ()
        in
        let r = Net.Runner.create_topo ~seed:21 (Topology.dumbbell cfg) in
        let f =
          Net.Runner.add_flow r ~label:"ledbat"
            ~factory:(Proteus_cc.Ledbat.factory ())
        in
        Net.Runner.run r ~until:2.0;
        Net.Runner.pause r f;
        Net.Runner.run r ~until:4.0;
        Net.Runner.resume r f;
        Net.Runner.run r ~until:8.0;
        flow_digest f );
    ( "impairments-audited",
      fun () ->
        let r = Net.Runner.create ~seed:37 (impaired_cfg ()) in
        let audit = Net.Runner.attach_audit r in
        let a =
          Net.Runner.add_flow r ~stop:8.0 ~label:"a"
            ~factory:(Proteus.Presets.proteus_p ())
        in
        let b =
          Net.Runner.add_flow r ~stop:8.0 ~label:"b"
            ~factory:(Proteus_cc.Copa.factory ())
        in
        Net.Runner.run r ~until:10.0;
        Net.Audit.assert_quiesced audit;
        Printf.sprintf "%s | %s | audited=%d" (flow_digest a) (flow_digest b)
          (Net.Audit.events_checked audit) );
    ( "impairments-traced",
      fun () ->
        let trace = Trace.create () in
        let r = Net.Runner.create ~seed:37 ~trace (impaired_cfg ()) in
        let audit = Net.Runner.attach_audit r in
        let a =
          Net.Runner.add_flow r ~stop:8.0 ~label:"a"
            ~factory:(Proteus.Presets.proteus_p ())
        in
        let b =
          Net.Runner.add_flow r ~stop:8.0 ~label:"b"
            ~factory:(Proteus_cc.Copa.factory ())
        in
        Net.Runner.run r ~until:10.0;
        Net.Audit.assert_quiesced audit;
        Printf.sprintf "%s | %s | audited=%d" (flow_digest a) (flow_digest b)
          (Net.Audit.events_checked audit) );
  ]

(* Recorded on the dumbbell as a one-hop chain (its reverse link
   carries the ACK knobs). The [bulk]/[finite]/[pause-resume] scenarios
   exercise loss + noise, finite completion and pause/resume; the
   [impairments-*] pair exercises outage/bandwidth schedules, bursty
   loss, reorder/dup, the auditor and the trace bus (which must not
   perturb the run). *)
let goldens =
  [
    ("bulk", "cubic sent=4759 acked=4623 lost=124 dup=0 bytes=6934500 rtt_n=4623 rtt_sum=190.2847335956134 first=0.030888430288970734 last=9.998545892450533 done=- | proteus-s sent=5110 acked=5032 lost=49 dup=0 bytes=7548000 rtt_n=5032 rtt_sum=166.04769379354946 first=2.0315659602934013 last=9.9992418396442773 done=-");
    ("finite", "short sent=101 acked=100 lost=1 dup=0 bytes=150000 rtt_n=100 rtt_sum=4.4018673136915254 first=0.021232000000000001 last=0.28802922703639583 done=0.28802922703639583 | bulk sent=16747 acked=16376 lost=339 dup=0 bytes=24564000 rtt_n=16376 rtt_sum=635.06883297265142 first=0.033231999999999998 last=19.999657516562216 done=-");
    ("pause-resume", "ledbat sent=4944 acked=4884 lost=19 dup=0 bytes=7326000 rtt_n=4884 rtt_sum=223.07729599998822 first=0.021232000000000001 last=7.9992319999995614 done=-");
    ("impairments-audited", "a sent=2668 acked=2257 lost=411 dup=49 bytes=3385500 rtt_n=2257 rtt_sum=231.93752701227467 first=0.030615999999999997 last=8.0404125394763675 done=- | b sent=6445 acked=6202 lost=243 dup=106 bytes=9303000 rtt_n=6202 rtt_sum=274.40968825465069 first=0.031215999999999997 last=8.0410125394763678 done=- | audited=18381");
    ("impairments-traced", "a sent=2668 acked=2257 lost=411 dup=49 bytes=3385500 rtt_n=2257 rtt_sum=231.93752701227467 first=0.030615999999999997 last=8.0404125394763675 done=- | b sent=6445 acked=6202 lost=243 dup=106 bytes=9303000 rtt_n=6202 rtt_sum=274.40968825465069 first=0.031215999999999997 last=8.0410125394763678 done=- | audited=18381");
  ]

let test_dumbbell_parity name () =
  let run = List.assoc name golden_scenarios in
  let expected = List.assoc name goldens in
  Alcotest.(check string) (name ^ " digest") expected (run ())

(* ---------- multi-hop semantics ---------- *)

let hop_cfg ?loss_rate ?schedule ~bw ~rtt_ms ~buffer () =
  Link.config ?loss_rate ?schedule ~bandwidth_mbps:bw ~rtt_ms ~buffer_bytes:buffer ()

(* A 3-hop parking lot: one end-to-end flow plus one cross flow per
   hop, parameters varied per trial. Flows stop early enough for every
   in-flight event to fire before the horizon, so the auditor's
   conservation laws (flow-level and per-hop) must hold exactly. *)
let parking_lot_trial ~seed =
  let v k lo hi =
    (* Deterministic per-trial parameter in [lo, hi). *)
    let x = float_of_int (((seed * 7) + k) mod 10) /. 10.0 in
    lo +. (x *. (hi -. lo))
  in
  let mk k =
    hop_cfg
      ~loss_rate:(if k = 1 then v 3 0.0 0.05 else 0.0)
      ?schedule:
        (if seed mod 2 = 0 && k = 1 then
           Some
             [
               (1.0, Link.Down { duration = 0.4; flush = seed mod 4 = 0 });
               (2.0, Link.Set_bandwidth (v 4 6.0 18.0));
             ]
         else None)
      ~bw:(v k 8.0 24.0)
      ~rtt_ms:(v (k + 5) 10.0 40.0)
      ~buffer:(50_000 + (10_000 * (seed mod 4)))
      ()
  in
  let topo = Topology.chain [ mk 0; mk 1; mk 2 ] in
  let r = Net.Runner.create_topo ~seed topo in
  let audit = Net.Runner.attach_audit r in
  (* The e2e protocol rotates by seed over the lineup, so every seed
     set covers each controller's per-hop quiesce end to end. *)
  let e2e_cc =
    List.nth
      [ "proteus-p"; "proteus-s"; "cubic"; "bbr"; "copa"; "ledbat-100" ]
      (seed mod 6)
  in
  let e2e =
    Net.Runner.add_flow r ~stop:5.0 ~route:(Topology.chain_route topo)
      ~label:"e2e"
      ~factory:(Result.get_ok (Proteus_scenario.Protocols.factory e2e_cc))
  in
  let protos =
    [|
      Proteus_cc.Bbr.factory (); Proteus_cc.Ledbat.factory ();
      Proteus_cc.Copa.factory ();
    |]
  in
  let cross =
    List.init 3 (fun hop ->
        Net.Runner.add_flow r ~stop:5.0
          ~route:(Topology.hop_route topo ~hop)
          ~label:(Printf.sprintf "x%d" hop)
          ~factory:protos.((hop + seed) mod 3))
  in
  Net.Runner.run r ~until:12.0;
  Net.Audit.assert_quiesced audit;
  (r, audit, e2e, cross)

let test_parking_lot_conservation () =
  for seed = 0 to 7 do
    let r, audit, e2e, cross = parking_lot_trial ~seed in
    let flows = e2e :: cross in
    (* Per-hop occupancy balances at quiesce... *)
    let total_hop_drops = ref 0 in
    for link = 0 to Net.Runner.num_links r - 1 do
      let entered, exited, dropped = Net.Audit.hop_counters audit ~link in
      Alcotest.(check int)
        (Printf.sprintf "seed %d link %d entered = exited" seed link)
        entered exited;
      total_hop_drops := !total_hop_drops + dropped
    done;
    (* ...and every hop drop surfaced as exactly one flow-level loss. *)
    let total_lost =
      List.fold_left
        (fun acc f -> acc + Net.Flow_stats.packets_lost (Net.Runner.stats f))
        0 flows
    in
    Alcotest.(check int)
      (Printf.sprintf "seed %d hop drops = flow losses" seed)
      total_lost !total_hop_drops;
    List.iter
      (fun f ->
        let st = Net.Runner.stats f in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d flow %s made progress" seed
             (Net.Runner.label f))
          true
          (Net.Flow_stats.packets_acked st > 0))
      flows
  done

let test_drop_attribution () =
  for seed = 0 to 7 do
    let r, audit, e2e, cross = parking_lot_trial ~seed in
    let flows = e2e :: cross in
    (* Per-flow: the by-hop histogram sums to the loss counter. *)
    List.iter
      (fun f ->
        let st = Net.Runner.stats f in
        let by_hop = Net.Flow_stats.losses_by_hop st in
        Alcotest.(check int)
          (Printf.sprintf "seed %d flow %s by-hop sum" seed (Net.Runner.label f))
          (Net.Flow_stats.packets_lost st)
          (Array.fold_left ( + ) 0 by_hop))
      flows;
    (* Per-link: flow attributions agree with the auditor's counters,
       and no flow blames a link outside its forward route. *)
    for link = 0 to Net.Runner.num_links r - 1 do
      let _, _, dropped = Net.Audit.hop_counters audit ~link in
      let attributed =
        List.fold_left
          (fun acc f ->
            acc + Net.Flow_stats.packets_lost_at (Net.Runner.stats f) ~hop:link)
          0 flows
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d link %d attribution" seed link)
        dropped attributed
    done;
    List.iteri
      (fun hop f ->
        (* Cross flow [hop] only crosses forward link [hop]. *)
        Array.iteri
          (fun link n ->
            if link <> hop then
              Alcotest.(check int)
                (Printf.sprintf "seed %d cross %d blames only its hop" seed hop)
                0 n)
          (Net.Flow_stats.losses_by_hop (Net.Runner.stats f)))
      cross
  done

(* Reverse-path congestion: loading the reverse link delays the probe
   flow's ACKs (strictly higher RTT) but neither reorders its forward
   deliveries nor drops anything on its path. *)
let reverse_path_run ~congested =
  let cfg = hop_cfg ~bw:20.0 ~rtt_ms:20.0 ~buffer:150_000 () in
  let topo = Topology.chain [ cfg ] in
  let trace = Trace.create ~capacity:(1 lsl 18) () in
  let r = Net.Runner.create_topo ~seed:11 ~trace topo in
  let probe =
    Net.Runner.add_flow r ~route:(Topology.chain_route topo) ~label:"probe"
      ~factory:(Proteus_cc.Cubic.factory ())
  in
  if congested then
    (* Travels the probe's reverse link as its forward path, at twice
       that link's capacity: the reverse queue stays pinned. *)
    ignore
      (Net.Runner.add_flow r
         ~route:(Topology.route topo ~fwd:[ 1 ] ~rev:[ 0 ])
         ~label:"rev-blast"
         ~factory:(Proteus_cc.Blaster.factory ~rate_mbps:40.0));
  Net.Runner.run r ~until:5.0;
  (trace, probe)

let test_reverse_path_congestion () =
  let quiet_trace, quiet = reverse_path_run ~congested:false in
  let busy_trace, busy = reverse_path_run ~congested:true in
  let rtts f = Net.Flow_stats.rtt_samples (Net.Runner.stats f) ~t0:0.0 ~t1:infinity in
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
  let amin a = Array.fold_left Float.min a.(0) a in
  let q = rtts quiet and b = rtts busy in
  Alcotest.(check bool) "quiet probe delivered" true (Array.length q > 100);
  Alcotest.(check bool) "busy probe delivered" true (Array.length b > 100);
  (* Strict RTT increase: even the fastest ACK waits behind reverse
     data, and the average inflation is at least several ms. *)
  Alcotest.(check bool) "min RTT strictly higher" true (amin b > amin q);
  Alcotest.(check bool) "mean RTT inflated" true (mean b > mean q +. 0.005);
  (* Forward path untouched: no probe loss blamed on any link but its
     forward hop, and ACKs (hence deliveries) stay in seq order. *)
  Array.iteri
    (fun link n ->
      if link <> 0 then
        Alcotest.(check int) "probe losses only on forward hop" 0 n)
    (Net.Flow_stats.losses_by_hop (Net.Runner.stats busy));
  List.iter
    (fun (trace, label) ->
      let last = ref (-1) in
      let ok = ref true in
      Trace.iter trace ~f:(fun (e : Trace.event) ->
          if e.kind = Trace.Ack && e.flow = 0 then begin
            if e.seq <= !last then ok := false;
            last := e.seq
          end);
      Alcotest.(check bool) (label ^ " ACKs in send order") true !ok)
    [ (quiet_trace, "quiet"); (busy_trace, "busy") ]

let test_multi_hop_determinism () =
  let digest () =
    let _, audit, e2e, cross = parking_lot_trial ~seed:3 in
    String.concat " | " (List.map flow_digest (e2e :: cross))
    ^ Printf.sprintf " | hops=%d" (Net.Audit.hop_events_checked audit)
  in
  let a = digest () and b = digest () in
  Alcotest.(check string) "same seed, same multi-hop run" a b

let test_route_validation () =
  let cfg = hop_cfg ~bw:10.0 ~rtt_ms:20.0 ~buffer:50_000 () in
  let topo = Topology.chain [ cfg; cfg ] in
  let free = Topology.make [ cfg; cfg ] in
  Alcotest.check_raises "empty chain" (Invalid_argument "Topology.chain: a chain needs at least one hop")
    (fun () -> ignore (Topology.chain []));
  Alcotest.check_raises "chain_route of non-chain"
    (Invalid_argument "Topology.chain_route: topology was not built by Topology.chain")
    (fun () -> ignore (Topology.chain_route free));
  (match Topology.route topo ~fwd:[ 9 ] ~rev:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range link id accepted");
  (match Topology.route topo ~fwd:[] ~rev:[ 0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty forward path accepted");
  let r = Net.Runner.create_topo free in
  (match Net.Runner.add_flow r ~label:"f" ~factory:(Proteus_cc.Cubic.factory ())
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "flow without a route accepted on Topology.make");
  (* A dumbbell has links 0 and 1: a route through link 2 of a larger
     topology is out of range. *)
  let rc = Net.Runner.create cfg in
  match
    Net.Runner.add_flow rc
      ~route:(Topology.route topo ~fwd:[ 2 ] ~rev:[])
      ~label:"f" ~factory:(Proteus_cc.Cubic.factory ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range route accepted on a dumbbell"

let suite =
  [
    ("dumbbell parity: bulk", `Quick, test_dumbbell_parity "bulk");
    ("dumbbell parity: finite", `Quick, test_dumbbell_parity "finite");
    ("dumbbell parity: pause-resume", `Quick, test_dumbbell_parity "pause-resume");
    ( "dumbbell parity: impairments audited",
      `Quick,
      test_dumbbell_parity "impairments-audited" );
    ( "dumbbell parity: impairments traced",
      `Quick,
      test_dumbbell_parity "impairments-traced" );
    ("parking lot conserves packets per hop", `Quick, test_parking_lot_conservation);
    ("per-hop drop attribution", `Quick, test_drop_attribution);
    ("reverse-path congestion inflates RTT only", `Quick, test_reverse_path_congestion);
    ("multi-hop runs are deterministic", `Quick, test_multi_hop_determinism);
    ("route validation", `Quick, test_route_validation);
  ]
