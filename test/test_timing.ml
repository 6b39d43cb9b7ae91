(* Analytic timing tests: scenarios whose exact outcome can be computed
   by hand, pinning the simulator's arithmetic (serialization, queueing,
   completion times) to closed-form values. *)

module Net = Proteus_net

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let test_blaster_completion_time () =
  (* 15 KB (10 packets) at a 10 Mbps paced blaster over a 100 Mbps
     empty link, 20 ms RTT.

     Packet i (0-based) departs the sender at i * 1.2 ms (pacing),
     serializes in 0.12 ms, and its ACK arrives 20 ms later, after its
     own 40 B serialization on the reverse link (3.2 us). The last
     packet is sent at 10.8 ms, so completion = 10.8 + 0.12 + 20 +
     0.0032 = 30.9232 ms. *)
  let cfg =
    Net.Link.config ~bandwidth_mbps:100.0 ~rtt_ms:20.0 ~buffer_bytes:1_000_000
      ()
  in
  let r = Net.Runner.create cfg in
  let f =
    Net.Runner.add_flow r ~label:"b" ~size_bytes:15_000
      ~factory:(Proteus_cc.Blaster.factory ~rate_mbps:10.0)
  in
  Net.Runner.run r ~until:1.0;
  check_float ~eps:1e-9 "completion" 0.0309232
    (Option.get (Net.Runner.completion_time f))

let test_queueing_rtt_progression () =
  (* A 10-packet burst into a 10 Mbps link (1.2 ms serialization each),
     20 ms base RTT: packet i's RTT = (i+1) * 1.2 ms + 20 ms. *)
  let cfg =
    Net.Link.config ~bandwidth_mbps:10.0 ~rtt_ms:20.0 ~buffer_bytes:1_000_000
      ()
  in
  let link = Round_trip.create cfg ~rng:(Proteus_stats.Rng.create ~seed:1) in
  (* Each ACK adds its own 40 B serialization on the reverse link. *)
  let ack_ser = Round_trip.ack_ser 10.0 in
  for i = 0 to 9 do
    match Round_trip.send link ~now:0.0 ~size:1500 with
    | Round_trip.Delivered { rtt; _ } ->
        check_float ~eps:1e-12
          (Printf.sprintf "rtt of packet %d" i)
          ((float_of_int (i + 1) *. 0.0012) +. 0.02 +. ack_ser)
          rtt
    | Round_trip.Dropped -> Alcotest.fail "no drop expected"
  done

let test_exact_drop_boundary () =
  (* Buffer of exactly 4500 B: packets are admitted while backlog+size
     <= 4500, i.e. exactly 3 back-to-back packets, and the 4th drops. *)
  let cfg =
    Net.Link.config ~bandwidth_mbps:10.0 ~rtt_ms:20.0 ~buffer_bytes:4500 ()
  in
  let link = Round_trip.create cfg ~rng:(Proteus_stats.Rng.create ~seed:1) in
  let outcomes =
    List.init 4 (fun _ ->
        match Round_trip.send link ~now:0.0 ~size:1500 with
        | Round_trip.Delivered _ -> `D
        | Round_trip.Dropped -> `X)
  in
  Alcotest.(check bool) "3 in, 4th dropped" true (outcomes = [ `D; `D; `D; `X ])

let test_loss_notification_timing () =
  (* Through the runner: three packets leave back to back (a 100 Gbps
     pacer) onto a 10 Mbps / 20 ms link with a 3000 B buffer. Two fill
     the queue (2.4 ms backlog), the third drops and is notified when
     that backlog has drained plus one RTT: at 2.4 ms + 20 ms. *)
  let cfg =
    Net.Link.config ~bandwidth_mbps:10.0 ~rtt_ms:20.0 ~buffer_bytes:3000 ()
  in
  match
    Round_trip.losses cfg ~stop:3e-7
      ~factory:(Proteus_cc.Blaster.factory ~rate_mbps:100_000.0)
      ~until:1.0
  with
  | (send, notify) :: _ ->
      if send >= 3e-7 then Alcotest.failf "first loss sent at %g" send;
      check_float ~eps:1e-12 "notify" (0.0024 +. 0.02) notify
  | [] -> Alcotest.fail "expected drop"

let test_finite_flow_last_packet_size () =
  (* 3100 bytes = 1500 + 1500 + 100: three packets exactly. *)
  let cfg =
    Net.Link.config ~bandwidth_mbps:10.0 ~rtt_ms:20.0 ~buffer_bytes:100_000 ()
  in
  let r = Net.Runner.create cfg in
  let f =
    Net.Runner.add_flow r ~label:"odd" ~size_bytes:3100
      ~factory:(Proteus_cc.Cubic.factory ())
  in
  Net.Runner.run r ~until:2.0;
  Alcotest.(check int) "3 packets" 3
    (Net.Flow_stats.packets_sent (Net.Runner.stats f));
  check_float ~eps:0.5 "exactly the bytes acked" 3100.0
    (Net.Flow_stats.bytes_acked (Net.Runner.stats f))

let test_stagger_isolated_throughput () =
  (* Two blasters at 4 Mbps each on a 10 Mbps link never interact: each
     gets exactly its configured rate. *)
  let cfg =
    Net.Link.config ~bandwidth_mbps:10.0 ~rtt_ms:20.0 ~buffer_bytes:100_000 ()
  in
  let r = Net.Runner.create cfg in
  let a = Net.Runner.add_flow r ~label:"a"
      ~factory:(Proteus_cc.Blaster.factory ~rate_mbps:4.0) in
  let b = Net.Runner.add_flow r ~start:2.0 ~label:"b"
      ~factory:(Proteus_cc.Blaster.factory ~rate_mbps:4.0) in
  Net.Runner.run r ~until:12.0;
  check_float ~eps:0.05 "a rate" 4.0
    (Net.Flow_stats.throughput_mbps (Net.Runner.stats a) ~t0:4.0 ~t1:12.0);
  check_float ~eps:0.05 "b rate" 4.0
    (Net.Flow_stats.throughput_mbps (Net.Runner.stats b) ~t0:4.0 ~t1:12.0);
  (* And no losses: 8 < 10 Mbps. *)
  Alcotest.(check int) "no loss a" 0
    (Net.Flow_stats.packets_lost (Net.Runner.stats a));
  Alcotest.(check int) "no loss b" 0
    (Net.Flow_stats.packets_lost (Net.Runner.stats b))

let suite =
  [
    ("blaster completion time", `Quick, test_blaster_completion_time);
    ("queueing rtt progression", `Quick, test_queueing_rtt_progression);
    ("exact drop boundary", `Quick, test_exact_drop_boundary);
    ("loss notify timing", `Quick, test_loss_notification_timing);
    ("last packet size", `Quick, test_finite_flow_last_packet_size);
    ("non-interacting blasters", `Quick, test_stagger_isolated_throughput);
  ]
