(* Cross-cutting property tests: link FIFO/conservation invariants,
   RNG distribution sanity, noise monotonicity, video/BOLA invariants,
   controller pacing, and the Trace recorder. *)

module Net = Proteus_net
module Stats = Proteus_stats
module Rng = Stats.Rng
module D = Stats.Descriptive

(* ---------- RNG distributions ---------- *)

let test_exponential_mean () =
  let rng = Rng.create ~seed:9 in
  let xs = Array.init 20_000 (fun _ -> Rng.exponential rng ~mean:3.0) in
  let m = D.mean xs in
  if Float.abs (m -. 3.0) > 0.15 then Alcotest.failf "exp mean %.3f" m

let test_gaussian_moments () =
  let rng = Rng.create ~seed:9 in
  let xs = Array.init 20_000 (fun _ -> Rng.gaussian rng ~mu:5.0 ~sigma:2.0) in
  if Float.abs (D.mean xs -. 5.0) > 0.1 then
    Alcotest.failf "gaussian mean %.3f" (D.mean xs);
  if Float.abs (D.stddev xs -. 2.0) > 0.1 then
    Alcotest.failf "gaussian std %.3f" (D.stddev xs)

let test_pareto_bounds () =
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 5000 do
    let x = Rng.pareto rng ~shape:1.5 ~scale:4.0 in
    if x < 4.0 then Alcotest.failf "pareto below scale: %f" x
  done

let test_uniform_bounds () =
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 5000 do
    let x = Rng.uniform rng ~lo:(-2.0) ~hi:7.0 in
    if x < -2.0 || x >= 7.0 then Alcotest.failf "uniform out of range %f" x
  done

let test_bernoulli_rate () =
  let rng = Rng.create ~seed:9 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng ~p:0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  if Float.abs (rate -. 0.3) > 0.01 then Alcotest.failf "bernoulli %.4f" rate

(* ---------- Link invariants ---------- *)

let prop_link_fifo =
  QCheck.Test.make ~name:"link delivers in FIFO order" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 60) (int_range 100 1500))
    (fun sizes ->
      let cfg =
        Net.Link.config ~bandwidth_mbps:10.0 ~rtt_ms:20.0
          ~buffer_bytes:10_000_000 ()
      in
      let link = Round_trip.create cfg ~rng:(Rng.create ~seed:1) in
      let acks =
        List.filter_map
          (fun size ->
            match Round_trip.send link ~now:0.0 ~size with
            | Round_trip.Delivered { ack_time; _ } -> Some ack_time
            | Round_trip.Dropped -> None)
          sizes
      in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      nondecreasing acks)

let prop_link_rtt_at_least_base =
  QCheck.Test.make ~name:"delivered RTT >= base RTT + serialization"
    ~count:100
    QCheck.(pair (float_range 1.0 100.0) (float_range 1.0 200.0))
    (fun (bw, rtt_ms) ->
      let cfg =
        Net.Link.config ~bandwidth_mbps:bw ~rtt_ms ~buffer_bytes:1_000_000 ()
      in
      let link = Round_trip.create cfg ~rng:(Rng.create ~seed:1) in
      match Round_trip.send link ~now:0.0 ~size:1500 with
      | Round_trip.Delivered { rtt; _ } ->
          let expected =
            Net.Units.ms rtt_ms
            +. (1500.0 /. Net.Units.mbps_to_bytes_per_sec bw)
            +. Round_trip.ack_ser bw
          in
          Float.abs (rtt -. expected) < 1e-9
      | Round_trip.Dropped -> false)

let prop_runner_conserves_packets =
  QCheck.Test.make ~name:"every sent packet is acked or lost exactly once"
    ~count:15
    QCheck.(pair (int_range 1 3) (float_range 0.0 0.05))
    (fun (n_flows, loss_rate) ->
      let cfg =
        Net.Link.config ~loss_rate ~bandwidth_mbps:10.0 ~rtt_ms:20.0
          ~buffer_bytes:75_000 ()
      in
      let r = Net.Runner.create ~seed:7 cfg in
      let flows =
        List.init n_flows (fun i ->
            Net.Runner.add_flow r
              ~label:(string_of_int i)
              ~factory:(Proteus_cc.Cubic.factory ()))
      in
      Net.Runner.run r ~until:5.0;
      (* Drain in-flight traffic: no new sends (stop by pausing), run on. *)
      List.iter (fun f -> Net.Runner.pause r f) flows;
      Net.Runner.run r ~until:7.0;
      List.for_all
        (fun f ->
          let st = Net.Runner.stats f in
          Net.Flow_stats.packets_acked st + Net.Flow_stats.packets_lost st
          = Net.Flow_stats.packets_sent st)
        flows)

(* ---------- Noise ---------- *)

let test_wifi_gate_orders_acks () =
  (* During a compression gate, delivery times must never go backwards
     relative to the nominal order. *)
  let n = Net.Noise.create Net.Noise.default_wifi ~rng:(Rng.create ~seed:4) in
  let prev = ref 0.0 in
  let violations = ref 0 in
  for i = 1 to 5000 do
    let nominal = float_of_int i *. 0.002 in
    let d = Net.Noise.ack_delivery_time n ~nominal in
    (* Jitter can reorder slightly, but the gate may only delay. *)
    if d < nominal then incr violations;
    prev := d
  done;
  ignore !prev;
  Alcotest.(check int) "never early" 0 !violations

(* ---------- LTE noise & Allegro ---------- *)

let test_lte_quantizes_to_frames () =
  let n =
    Net.Noise.create
      (Net.Noise.Lte
         { frame_ms = 1.0; jitter_ms = 0.0; outage_prob = 0.0;
           outage_max_ms = 0.0 })
      ~rng:(Rng.create ~seed:1)
  in
  let d = Net.Noise.ack_delivery_time n ~nominal:0.00137 in
  if Float.abs (d -. 0.002) > 1e-9 then
    Alcotest.failf "not frame-aligned: %f" d

let test_lte_never_early_and_bounded () =
  let n = Net.Noise.create Net.Noise.default_lte ~rng:(Rng.create ~seed:2) in
  for i = 1 to 5000 do
    let nominal = float_of_int i *. 0.003 in
    let d = Net.Noise.ack_delivery_time n ~nominal in
    if d < nominal then Alcotest.fail "lte delivered early";
    if d > nominal +. 0.06 then Alcotest.failf "lte delay too large: %f" (d -. nominal)
  done

let test_allegro_utility_shape () =
  let u = Proteus.Utility.allegro () in
  let m loss =
    {
      Proteus.Mi.send_rate_mbps = 10.0;
      target_rate_mbps = 10.0;
      loss_rate = loss;
      avg_rtt = 0.05;
      rtt_gradient = 0.0;
      rtt_deviation = 0.0;
      regression_error = 0.0;
      duration = 0.05;
    }
  in
  (* Near-lossless: utility ~ rate. Above the 5% sigmoid cutoff the
     rate term collapses and the loss penalty dominates. *)
  if Float.abs (Proteus.Utility.eval u (m 0.0) -. 10.0) > 0.1 then
    Alcotest.fail "allegro clean utility should be ~rate";
  if Proteus.Utility.eval u (m 0.2) >= 0.0 then
    Alcotest.fail "allegro should go negative at heavy loss"

let test_allegro_saturates_and_bloats () =
  let cfg =
    Net.Link.config ~bandwidth_mbps:20.0 ~rtt_ms:30.0 ~buffer_bytes:300_000 ()
  in
  let r = Net.Runner.create cfg in
  let f =
    Net.Runner.add_flow r ~label:"allegro"
      ~factory:(Proteus.Presets.allegro ())
  in
  Net.Runner.run r ~until:30.0;
  let st = Net.Runner.stats f in
  let tput = Net.Flow_stats.throughput_mbps st ~t0:10.0 ~t1:30.0 in
  if tput < 17.0 then Alcotest.failf "allegro only %.2f Mbps" tput;
  (* Loss-based: it has no reason to keep the 120 ms buffer empty. *)
  match Net.Flow_stats.rtt_percentile st ~t0:10.0 ~t1:30.0 ~p:95.0 with
  | Some p95 when p95 > 0.05 -> ()
  | Some p95 -> Alcotest.failf "allegro suspiciously latency-aware: %.4f" p95
  | None -> Alcotest.fail "no samples"

(* ---------- BOLA / video ---------- *)

let prop_bola_always_decides_when_empty =
  QCheck.Test.make ~name:"bola downloads on an empty buffer" ~count:50
    QCheck.(int_range 2 8)
    (fun cap ->
      let v = Proteus_video.Video.make_4k ~seed:cap ~name:"q" () in
      let b =
        Proteus_video.Bola.create ~video:v
          ~buffer_capacity_chunks:(float_of_int cap) ()
      in
      match Proteus_video.Bola.decide b ~buffer_chunks:0.0 with
      | Proteus_video.Bola.Download _ -> true
      | Proteus_video.Bola.Abstain -> false)

let prop_playback_time_conserved =
  QCheck.Test.make ~name:"playback: played + buffered = added chunks"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0.1 5.0))
    (fun gaps ->
      let p = Proteus_video.Playback.create ~capacity_seconds:1000.0 () in
      let now = ref 0.0 in
      List.iter
        (fun gap ->
          now := !now +. gap;
          Proteus_video.Playback.add_chunk p ~now:!now ~seconds:3.0)
        gaps;
      let added = 3.0 *. float_of_int (List.length gaps) in
      let accounted =
        Proteus_video.Playback.play_time p
        +. Proteus_video.Playback.buffer_seconds p
      in
      Float.abs (added -. accounted) < 1e-6)

(* ---------- Controller pacing & trace ---------- *)

let test_controller_pacing_gap () =
  let env = Net.Sender.make_env ~rng:(Rng.create ~seed:2) ~mtu:1500 () in
  let c =
    Proteus.Controller.create
      (Proteus.Controller.default_config ~utility:(Proteus.Utility.proteus_p ()))
      env
  in
  let s = Net.Sender.pack (module Proteus.Controller) c in
  (* Initial rate 2 Mbps = 250 kB/s: one packet per 6 ms. *)
  if Net.Sender.next_send s ~now:0.0 > 0.0 then
    Alcotest.fail "first packet immediate";
  Net.Sender.on_sent s ~now:0.0 ~seq:0 ~size:1500;
  let t = Net.Sender.next_send s ~now:0.0 in
  if not (Float.is_finite t && t > 0.0) then
    Alcotest.fail "expected paced send";
  if Float.abs (t -. 0.006) > 1e-9 then
    Alcotest.failf "pacing gap %.6f, expected 0.006" t

(* The controller publishes each consumed MI result to its trace bus
   as a Rate_decision event ([b] = the new base rate, Mbps). *)
let test_trace_records_mi_decisions () =
  let module Trace = Proteus_obs.Trace in
  let bus, c = Test_policies.traced_proteus_run () in
  let series =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.kind = Trace.Rate_decision then Some (e.time, e.b) else None)
      (Trace.to_list bus)
  in
  let n = List.length series in
  if n = 0 then Alcotest.fail "no samples recorded";
  let mis = Proteus.Controller.mi_count c in
  if n > mis then Alcotest.failf "%d decisions > %d completed MIs" n mis;
  (* Rate series is time-ordered and the controller converges upward. *)
  let times = List.map fst series in
  if List.sort compare times <> times then Alcotest.fail "series unordered";
  match List.find_opt (fun (_, rate) -> rate >= 15.0) series with
  | Some (t, _) when t > 0.0 && t < 10.0 -> ()
  | Some (t, _) -> Alcotest.failf "odd convergence time %f" t
  | None -> Alcotest.fail "never converged to 15 Mbps"

(* ---------- Units ---------- *)

let prop_units_roundtrip =
  QCheck.Test.make ~name:"mbps <-> bytes/s roundtrip" ~count:200
    QCheck.(float_range 0.001 10_000.0)
    (fun m ->
      let b = Net.Units.mbps_to_bytes_per_sec m in
      Float.abs (Net.Units.bytes_per_sec_to_mbps b -. m) < 1e-9 *. m)

let qcheck = List.map QCheck_alcotest.to_alcotest

let suite =
  [
    ("rng exponential mean", `Quick, test_exponential_mean);
    ("rng gaussian moments", `Quick, test_gaussian_moments);
    ("rng pareto bounds", `Quick, test_pareto_bounds);
    ("rng uniform bounds", `Quick, test_uniform_bounds);
    ("rng bernoulli rate", `Quick, test_bernoulli_rate);
    ("wifi gate never early", `Quick, test_wifi_gate_orders_acks);
    ("lte frame quantization", `Quick, test_lte_quantizes_to_frames);
    ("lte bounded delay", `Quick, test_lte_never_early_and_bounded);
    ("allegro utility shape", `Quick, test_allegro_utility_shape);
    ("allegro saturates+bloats", `Slow, test_allegro_saturates_and_bloats);
    ("controller pacing gap", `Quick, test_controller_pacing_gap);
    ("trace records MI decisions", `Slow, test_trace_records_mi_decisions);
  ]
  @ qcheck
      [
        prop_link_fifo;
        prop_link_rtt_at_least_base;
        prop_runner_conserves_packets;
        prop_bola_always_decides_when_empty;
        prop_playback_time_conserved;
        prop_units_roundtrip;
      ]
