(* Tests for the network substrate: units, link model, flow stats,
   runner, workload generator. *)

open Proteus_net
module Rng = Proteus_stats.Rng

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------- Units ---------- *)

let test_units_roundtrip () =
  check_float "mbps roundtrip" 123.0
    (Units.bytes_per_sec_to_mbps (Units.mbps_to_bytes_per_sec 123.0));
  check_float "1 Mbps" 125000.0 (Units.mbps_to_bytes_per_sec 1.0);
  check_float "ms" 0.03 (Units.ms 30.0);
  Alcotest.(check int) "kb" 375000 (Units.kb 375.0);
  check_float "bdp 50Mbps*30ms" 187500.0
    (Units.bdp_bytes ~bandwidth_mbps:50.0 ~rtt_ms:30.0)

(* ---------- Link ---------- *)

let mk_link ?loss_rate ?noise ?(bw = 10.0) ?(rtt = 20.0) ?(buffer = 100_000) () =
  let cfg = Link.config ?loss_rate ?noise ~bandwidth_mbps:bw ~rtt_ms:rtt
      ~buffer_bytes:buffer () in
  Round_trip.create cfg ~rng:(Rng.create ~seed:5)

(* Every ACK pays its own 40 B serialization on the reverse link. *)
let ack_ser = Round_trip.ack_ser 10.0

let test_link_idle_rtt () =
  let link = mk_link () in
  (* 1500 B at 10 Mbps = 1.2 ms serialization; plus 20 ms RTT. *)
  match Round_trip.send link ~now:0.0 ~size:1500 with
  | Round_trip.Delivered { rtt; _ } ->
      check_float ~eps:1e-9 "idle rtt" (0.0212 +. ack_ser) rtt
  | Round_trip.Dropped -> Alcotest.fail "dropped on idle link"

let test_link_queueing_delay_accumulates () =
  let link = mk_link () in
  let r1 =
    match Round_trip.send link ~now:0.0 ~size:1500 with
    | Round_trip.Delivered { rtt; _ } -> rtt
    | _ -> Alcotest.fail "drop"
  in
  let r2 =
    match Round_trip.send link ~now:0.0 ~size:1500 with
    | Round_trip.Delivered { rtt; _ } -> rtt
    | _ -> Alcotest.fail "drop"
  in
  check_float ~eps:1e-9 "second packet queues" (r1 +. 0.0012) r2

let test_link_tail_drop () =
  (* Buffer of 3000 B: two packets fit (the first is in service), the
     third pushes the backlog past the buffer. *)
  let link = mk_link ~buffer:3000 () in
  let send () = Round_trip.send link ~now:0.0 ~size:1500 in
  (match send () with Round_trip.Delivered _ -> () | _ -> Alcotest.fail "p1");
  (match send () with Round_trip.Delivered _ -> () | _ -> Alcotest.fail "p2");
  match send () with
  | Round_trip.Dropped -> ()
  | Round_trip.Delivered _ -> Alcotest.fail "third packet should tail-drop"

let test_link_queue_drains () =
  let link = mk_link ~buffer:3000 () in
  ignore (Round_trip.send link ~now:0.0 ~size:1500);
  ignore (Round_trip.send link ~now:0.0 ~size:1500);
  (* After 2 serialization times the queue is empty again. *)
  match Round_trip.send link ~now:0.01 ~size:1500 with
  | Round_trip.Delivered { rtt; _ } ->
      check_float ~eps:1e-9 "drained" (0.0212 +. ack_ser) rtt
  | Round_trip.Dropped -> Alcotest.fail "dropped after drain"

let test_link_backlog_accounting () =
  let rt = mk_link () in
  let link = rt.Round_trip.fwd in
  check_float "empty backlog" 0.0 (Link.backlog_bytes link ~now:0.0);
  ignore (Round_trip.send rt ~now:0.0 ~size:1500);
  ignore (Round_trip.send rt ~now:0.0 ~size:1500);
  check_float ~eps:1.0 "backlog 3000" 3000.0 (Link.backlog_bytes link ~now:0.0);
  check_float ~eps:1e-9 "queue delay" 0.0024 (Link.queue_delay link ~now:0.0);
  (* ACKs never queue-build on the reverse link. *)
  check_float "reverse backlog" 0.0
    (Link.backlog_bytes rt.Round_trip.rev ~now:0.0)

let test_link_random_loss_rate () =
  let link = mk_link ~loss_rate:0.3 ~buffer:100_000_000 () in
  let drops = ref 0 in
  let n = 20_000 in
  for i = 0 to n - 1 do
    (* Space sends out so the queue never drops. *)
    match Round_trip.send link ~now:(float_of_int i) ~size:1500 with
    | Round_trip.Dropped -> incr drops
    | Round_trip.Delivered _ -> ()
  done;
  let rate = float_of_int !drops /. float_of_int n in
  if Float.abs (rate -. 0.3) > 0.02 then
    Alcotest.failf "loss rate %.3f far from 0.3" rate

let test_link_loss_notification_after_rtt () =
  (* Through the runner: with p = 1 nothing is ever queued, so each
     drop is notified exactly one RTT (20 ms) after its send. *)
  let cfg =
    Link.config ~loss_rate:1.0 ~bandwidth_mbps:10.0 ~rtt_ms:20.0
      ~buffer_bytes:100_000 ()
  in
  let losses =
    Round_trip.losses cfg ~stop:0.1
      ~factory:(Proteus_cc.Blaster.factory ~rate_mbps:1.0)
      ~until:1.0
  in
  Alcotest.(check bool) "every packet lost" true (List.length losses > 5);
  List.iter
    (fun (send, notify) ->
      check_float ~eps:1e-12 "notified one RTT after send" 0.02
        (notify -. send))
    losses

(* ---------- Noise ---------- *)

let test_noise_none_identity () =
  let n = Noise.create Noise.None_ ~rng:(Rng.create ~seed:1) in
  check_float "identity" 42.0 (Noise.ack_delivery_time n ~nominal:42.0)

let test_noise_delays_only () =
  let n = Noise.create Noise.default_wifi ~rng:(Rng.create ~seed:2) in
  for i = 1 to 1000 do
    let nominal = float_of_int i *. 0.01 in
    let d = Noise.ack_delivery_time n ~nominal in
    if d < nominal -. 1e-12 then Alcotest.fail "noise delivered early"
  done

let test_noise_gaussian_magnitude () =
  let n =
    Noise.create (Noise.Gaussian { sigma_ms = 2.0 }) ~rng:(Rng.create ~seed:3)
  in
  let extras =
    Array.init 2000 (fun i ->
        let nominal = float_of_int i in
        Noise.ack_delivery_time n ~nominal -. nominal)
  in
  let mean = Proteus_stats.Descriptive.mean extras in
  (* |N(0, 2ms)| has mean sigma*sqrt(2/pi) ~ 1.6 ms *)
  if mean < 0.0005 || mean > 0.004 then
    Alcotest.failf "gaussian extra mean %.6f out of range" mean

(* ---------- Flow stats ---------- *)

let test_flow_stats_throughput_window () =
  let st = Flow_stats.create () in
  Flow_stats.record_ack st ~now:1.0 ~size:125_000 ~rtt:0.02;
  Flow_stats.record_ack st ~now:2.0 ~size:125_000 ~rtt:0.02;
  Flow_stats.record_ack st ~now:5.0 ~size:125_000 ~rtt:0.02;
  (* 250 KB acked in [0.5, 2.5): 1 Mbps over a 2 s window. *)
  check_float "windowed tput" 1.0
    (Flow_stats.throughput_mbps st ~t0:0.5 ~t1:2.5)

let test_flow_stats_rtt_percentile () =
  let st = Flow_stats.create () in
  List.iteri
    (fun i rtt -> Flow_stats.record_ack st ~now:(float_of_int i) ~size:1 ~rtt)
    [ 0.010; 0.020; 0.030; 0.040 ];
  match Flow_stats.rtt_percentile st ~t0:0.0 ~t1:10.0 ~p:50.0 with
  | Some p -> check_float "median rtt" 0.025 p
  | None -> Alcotest.fail "no samples"

let test_flow_stats_loss_fraction () =
  let st = Flow_stats.create () in
  for _ = 1 to 8 do
    Flow_stats.record_sent st ~now:0.0 ~size:1500
  done;
  Flow_stats.record_loss st ~size:1500;
  Flow_stats.record_loss st ~size:1500;
  check_float "loss" 0.25 (Flow_stats.loss_fraction st)

(* A rejected hop must leave no trace: [losses_by_hop] keeps summing to
   [packets_lost]. *)
let test_flow_stats_negative_hop () =
  let st = Flow_stats.create () in
  Flow_stats.record_loss ~hop:2 st ~size:1500;
  Alcotest.check_raises "negative hop"
    (Invalid_argument "Flow_stats.record_loss: negative hop") (fun () ->
      Flow_stats.record_loss ~hop:(-1) st ~size:1500);
  Alcotest.(check int) "lost" 1 (Flow_stats.packets_lost st);
  Alcotest.(check int)
    "by-hop sum" (Flow_stats.packets_lost st)
    (Array.fold_left ( + ) 0 (Flow_stats.losses_by_hop st))

let test_flow_stats_series () =
  let st = Flow_stats.create () in
  Flow_stats.record_ack st ~now:0.5 ~size:125_000 ~rtt:0.02;
  Flow_stats.record_ack st ~now:1.5 ~size:250_000 ~rtt:0.02;
  let series = Flow_stats.throughput_series st ~bin:1.0 ~until:2.0 in
  Alcotest.(check int) "bins" 2 (Array.length series);
  check_float "bin0" 1.0 (snd series.(0));
  check_float "bin1" 2.0 (snd series.(1))

let test_flow_stats_series_edge () =
  (* Acks at or past [until], or whose bin index rounds out of range,
     are dropped — they must not be clamped into the last bin. *)
  let st = Flow_stats.create () in
  Flow_stats.record_ack st ~now:0.5 ~size:125_000 ~rtt:0.02;
  Flow_stats.record_ack st ~now:2.0 ~size:250_000 ~rtt:0.02;
  Flow_stats.record_ack st ~now:2.5 ~size:250_000 ~rtt:0.02;
  let series = Flow_stats.throughput_series st ~bin:1.0 ~until:2.0 in
  Alcotest.(check int) "bins" 2 (Array.length series);
  check_float "bin0 keeps in-window ack" 1.0 (snd series.(0));
  check_float "final bin not inflated" 0.0 (snd series.(1));
  (* fractional last bin: the 2.2 ack lands in bin 2 of [0,0.75)x3, not
     clamped elsewhere; binned bytes never exceed what was acked *)
  let st2 = Flow_stats.create () in
  Flow_stats.record_ack st2 ~now:2.2 ~size:75_000 ~rtt:0.02;
  let series2 = Flow_stats.throughput_series st2 ~bin:0.75 ~until:2.25 in
  Alcotest.(check int) "ceil bins" 3 (Array.length series2);
  check_float "fractional last bin" 0.8 (snd series2.(2))

let test_flow_stats_series_bad_bin () =
  let st = Flow_stats.create () in
  Flow_stats.record_ack st ~now:0.5 ~size:Units.mtu ~rtt:0.02;
  List.iter
    (fun bin ->
      Alcotest.check_raises (Printf.sprintf "bin %g" bin)
        (Invalid_argument "Flow_stats.throughput_series: bin") (fun () ->
          ignore (Flow_stats.throughput_series st ~bin ~until:2.0)))
    [ 0.0; -1.0; Float.nan; Float.infinity ]

let words st = Obj.reachable_words (Obj.repr st)

(* The log keeps two floats per ACK: time and RTT. Bytes are implied
   by the MTU, so 100,000 MTU ACKs must fit in 2 words each plus what a
   fresh record holds (the record and its first chunk); a third column
   would add another 100,000 words. *)
let test_flow_stats_memory () =
  let empty = words (Flow_stats.create ()) in
  let st = Flow_stats.create () in
  let n = 100_000 in
  for i = 1 to n do
    Flow_stats.record_ack st ~now:(float_of_int i *. 1e-4) ~size:Units.mtu
      ~rtt:0.02
  done;
  let w = words st in
  if w > (2 * n) + empty then
    Alcotest.failf "%d MTU ACKs hold %d words, over 2 per ACK + %d" n w empty

(* Sizes off the MTU go to a side table that is not allocated until
   the first one arrives. *)
let test_flow_stats_side_table_lazy () =
  let st = Flow_stats.create () in
  let empty = words st in
  for i = 1 to 1000 do
    Flow_stats.record_ack st ~now:(float_of_int i) ~size:Units.mtu ~rtt:0.02
  done;
  Alcotest.(check int) "MTU ACKs in the first chunk allocate nothing" empty
    (words st);
  Flow_stats.record_ack st ~now:1001.0 ~size:40 ~rtt:0.02;
  if words st <= empty then
    Alcotest.fail "a non-MTU ACK must allocate the side table";
  check_float "bytes" ((1000.0 *. 1500.0) +. 40.0)
    (Flow_stats.bytes_acked_window st ~t0:0.0 ~t1:2000.0)

(* ---------- Runner ---------- *)

let standard_cfg ?loss_rate ?noise () =
  Link.config ?loss_rate ?noise ~bandwidth_mbps:10.0 ~rtt_ms:20.0
    ~buffer_bytes:50_000 ()

let test_runner_packet_conservation () =
  let r = Runner.create (standard_cfg ~loss_rate:0.02 ()) in
  let f = Runner.add_flow r ~label:"c" ~factory:(Proteus_cc.Cubic.factory ()) in
  Runner.run r ~until:10.0;
  (* Let in-flight packets land: no new sends after `stop`, so run a
     little longer with the flow stopped. *)
  let st = Runner.stats f in
  let accounted = Flow_stats.packets_acked st + Flow_stats.packets_lost st in
  if accounted > Flow_stats.packets_sent st then
    Alcotest.failf "acked+lost %d > sent %d" accounted
      (Flow_stats.packets_sent st);
  if Flow_stats.packets_sent st - accounted > 200 then
    Alcotest.failf "too many unaccounted packets (%d sent, %d accounted)"
      (Flow_stats.packets_sent st) accounted

let test_runner_finite_flow_completes () =
  let r = Runner.create (standard_cfg ()) in
  let completed_at = ref None in
  let f =
    Runner.add_flow r ~label:"short" ~factory:(Proteus_cc.Cubic.factory ())
      ~size_bytes:150_000
      ~on_complete:(fun ~now -> completed_at := Some now)
  in
  Runner.run r ~until:30.0;
  Alcotest.(check bool) "complete" true (Runner.is_complete f);
  (match !completed_at with
  | Some t when t > 0.0 && t < 10.0 -> ()
  | Some t -> Alcotest.failf "odd completion time %f" t
  | None -> Alcotest.fail "no completion callback");
  (* 150 KB at 10 Mbps minimum transfer time is 0.12 s + RTT. *)
  let t = Option.get (Runner.completion_time f) in
  if t < 0.14 then Alcotest.failf "completed impossibly fast: %f" t

let test_runner_finite_flow_completes_despite_loss () =
  let r = Runner.create (standard_cfg ~loss_rate:0.05 ()) in
  let f =
    Runner.add_flow r ~label:"short" ~factory:(Proteus_cc.Cubic.factory ())
      ~size_bytes:150_000
  in
  Runner.run r ~until:60.0;
  Alcotest.(check bool) "complete under loss" true (Runner.is_complete f)

let test_runner_start_stop_window () =
  let r = Runner.create (standard_cfg ()) in
  let f =
    Runner.add_flow r ~start:2.0 ~stop:4.0 ~label:"w"
      ~factory:(Proteus_cc.Cubic.factory ())
  in
  Runner.run r ~until:10.0;
  let st = Runner.stats f in
  (match Flow_stats.first_ack_time st with
  | Some t when t >= 2.0 -> ()
  | Some t -> Alcotest.failf "acked before start: %f" t
  | None -> Alcotest.fail "no acks");
  match Flow_stats.last_ack_time st with
  | Some t when t <= 4.5 -> ()
  | Some t -> Alcotest.failf "acks long after stop: %f" t
  | None -> Alcotest.fail "no acks"

let test_runner_pause_resume () =
  let r = Runner.create (standard_cfg ()) in
  let f = Runner.add_flow r ~label:"p" ~factory:(Proteus_cc.Cubic.factory ()) in
  Runner.run r ~until:2.0;
  Runner.pause r f;
  Runner.run r ~until:4.0;
  let during =
    Flow_stats.throughput_mbps (Runner.stats f) ~t0:2.5 ~t1:4.0
  in
  check_float ~eps:0.2 "paused tput ~0" 0.0 during;
  Runner.resume r f;
  Runner.run r ~until:8.0;
  let after = Flow_stats.throughput_mbps (Runner.stats f) ~t0:5.0 ~t1:8.0 in
  if after < 5.0 then Alcotest.failf "did not resume: %.2f Mbps" after

let test_runner_two_flows_share () =
  let r = Runner.create (standard_cfg ()) in
  let f1 = Runner.add_flow r ~label:"a" ~factory:(Proteus_cc.Cubic.factory ()) in
  let f2 = Runner.add_flow r ~label:"b" ~factory:(Proteus_cc.Cubic.factory ()) in
  Runner.run r ~until:30.0;
  let t1 = Flow_stats.throughput_mbps (Runner.stats f1) ~t0:10.0 ~t1:30.0 in
  let t2 = Flow_stats.throughput_mbps (Runner.stats f2) ~t0:10.0 ~t1:30.0 in
  if t1 +. t2 < 9.0 then Alcotest.failf "utilization too low: %f" (t1 +. t2);
  if t1 +. t2 > 10.5 then Alcotest.failf "exceeds capacity: %f" (t1 +. t2)

let test_runner_determinism () =
  let run_once () =
    let r = Runner.create ~seed:99 (standard_cfg ~loss_rate:0.01 ()) in
    let f = Runner.add_flow r ~label:"d" ~factory:(Proteus_cc.Cubic.factory ()) in
    Runner.run r ~until:5.0;
    ( Flow_stats.packets_sent (Runner.stats f),
      Flow_stats.packets_lost (Runner.stats f) )
  in
  let a = run_once () and b = run_once () in
  Alcotest.(check (pair int int)) "identical reruns" a b

(* Per-link streams are seeded on their first draw. A loss-free,
   noise-free dumbbell never draws, so its forward link reaches as many
   words after a run as before it; the same link with random loss
   reaches more after it (the generator state its first loss draw
   built), which a stream seeded at creation would already hold. *)
let test_runner_link_streams_lazy () =
  let link_words r = words (Runner.link_at r 0) in
  let before_after ?loss_rate () =
    let r = Runner.create (standard_cfg ?loss_rate ()) in
    let before = link_words r in
    ignore
      (Runner.add_flow r ~label:"c" ~factory:(Proteus_cc.Cubic.factory ()));
    Runner.run r ~until:2.0;
    (before, link_words r)
  in
  let clean0, clean1 = before_after () in
  Alcotest.(check int) "a loss-free, noise-free link seeds no stream" clean0
    clean1;
  let lossy0, lossy1 = before_after ~loss_rate:0.01 () in
  if lossy1 <= lossy0 then
    Alcotest.fail "a lossy link seeds its stream on its first draw"

(* ---------- Workload ---------- *)

let test_workload_poisson_spawns () =
  let r = Runner.create (standard_cfg ()) in
  let flows =
    Workload.poisson_short_flows r ~factory:(Proteus_cc.Cubic.factory ())
      ~rate_per_sec:2.0
      ~size_bytes:(fun rng -> 20_000 + Rng.int rng 80_000)
      ~from_time:0.0 ~until:30.0 ~label_prefix:"sf"
  in
  Runner.run r ~until:40.0;
  let n = List.length !flows in
  (* Poisson(60): within ~4 sigma. *)
  if n < 30 || n > 95 then Alcotest.failf "unexpected spawn count %d" n;
  let complete = List.filter Runner.is_complete !flows in
  if List.length complete * 10 < n * 9 then
    Alcotest.failf "too few completions: %d of %d" (List.length complete) n

let test_workload_zero_rate () =
  let r = Runner.create (standard_cfg ()) in
  let flows =
    Workload.poisson_short_flows r ~factory:(Proteus_cc.Cubic.factory ())
      ~rate_per_sec:0.0
      ~size_bytes:(fun _ -> 1000)
      ~from_time:0.0 ~until:10.0 ~label_prefix:"sf"
  in
  Runner.run r ~until:10.0;
  Alcotest.(check int) "no flows" 0 (List.length !flows)

let suite =
  [
    ("units", `Quick, test_units_roundtrip);
    ("link idle rtt", `Quick, test_link_idle_rtt);
    ("link queueing", `Quick, test_link_queueing_delay_accumulates);
    ("link tail drop", `Quick, test_link_tail_drop);
    ("link drain", `Quick, test_link_queue_drains);
    ("link backlog", `Quick, test_link_backlog_accounting);
    ("link random loss", `Quick, test_link_random_loss_rate);
    ("link loss notify time", `Quick, test_link_loss_notification_after_rtt);
    ("noise identity", `Quick, test_noise_none_identity);
    ("noise never early", `Quick, test_noise_delays_only);
    ("noise gaussian magnitude", `Quick, test_noise_gaussian_magnitude);
    ("flow stats window", `Quick, test_flow_stats_throughput_window);
    ("flow stats percentile", `Quick, test_flow_stats_rtt_percentile);
    ("flow stats loss", `Quick, test_flow_stats_loss_fraction);
    ("flow stats negative hop", `Quick, test_flow_stats_negative_hop);
    ("flow stats series", `Quick, test_flow_stats_series);
    ("flow stats series edge", `Quick, test_flow_stats_series_edge);
    ("flow stats series bad bin", `Quick, test_flow_stats_series_bad_bin);
    ("flow stats memory per ACK", `Quick, test_flow_stats_memory);
    ("flow stats side table is lazy", `Quick, test_flow_stats_side_table_lazy);
    ("runner conservation", `Quick, test_runner_packet_conservation);
    ("runner finite flow", `Quick, test_runner_finite_flow_completes);
    ("runner finite flow with loss", `Quick,
     test_runner_finite_flow_completes_despite_loss);
    ("runner start/stop", `Quick, test_runner_start_stop_window);
    ("runner pause/resume", `Quick, test_runner_pause_resume);
    ("runner two flows", `Quick, test_runner_two_flows_share);
    ("runner determinism", `Quick, test_runner_determinism);
    ("runner: a loss-free dumbbell seeds no link stream", `Quick,
      test_runner_link_streams_lazy);
    ("workload poisson", `Quick, test_workload_poisson_spawns);
    ("workload zero rate", `Quick, test_workload_zero_rate);
  ]
