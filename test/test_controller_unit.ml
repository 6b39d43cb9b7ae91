(* White-box tests of the Proteus controller against a synthetic
   channel: a programmable RTT oracle replaces the network, so each
   control-loop behaviour (doubling, convergence, deviation-driven
   yield, utility switching) can be asserted in isolation. *)

open Proteus
module Sim = Proteus_eventsim.Sim
module Net = Proteus_net

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* Drive a controller for [seconds] of virtual time. [rtt_of] maps
   (now, current controller rate in Mbps) to the RTT the channel
   reports; every packet is acked after that RTT (no loss). *)
let drive ?(seconds = 30.0) ~rtt_of config =
  let env = Net.Sender.make_env ~rng:(Proteus_stats.Rng.create ~seed:5) ~mtu:1500 () in
  let c = Controller.create config env in
  let sender = Net.Sender.pack (module Controller) c in
  let sim = Sim.create () in
  let seq = ref 0 in
  let rec pump () =
    let now = Sim.now sim in
    let ts = Net.Sender.next_send sender ~now in
    if ts <= now then begin
      let s = !seq in
      incr seq;
      Net.Sender.on_sent sender ~now ~seq:s ~size:1500;
      let rtt = rtt_of now (Controller.rate_mbps c) in
      Sim.after sim ~delay:rtt (fun () ->
          Net.Sender.on_ack sender ~now:(Sim.now sim) ~seq:s ~send_time:now
            ~size:1500 ~rtt);
      pump ()
    end
    else if Float.is_finite ts then Sim.at sim ~time:ts pump
    else Alcotest.fail "rate-based controller must never block"
  in
  pump ();
  Sim.run ~until:seconds sim;
  c

let p_config () = Controller.default_config ~utility:(Utility.proteus_p ())
let s_config () = Controller.default_config ~utility:(Utility.proteus_s ())

let test_constant_rtt_climbs_to_max () =
  (* A channel that never pushes back: utility is monotone in rate, so
     the controller must climb (doubling, then moving) all the way to
     its configured ceiling. *)
  let cfg = { (p_config ()) with Controller.max_rate_mbps = 100.0 } in
  let c = drive ~seconds:30.0 ~rtt_of:(fun _ _ -> 0.03) cfg in
  if Controller.rate_mbps c < 95.0 then
    Alcotest.failf "only reached %.1f of 100 Mbps" (Controller.rate_mbps c)

let test_gradient_wall_stops_climb () =
  (* Above 20 Mbps the channel inflates RTT in proportion to the excess
     (a virtual full link): Proteus-P must settle near 20. *)
  let base = 0.03 in
  let rtt_state = ref base in
  let rtt_of _now rate =
    (* Emulate queue growth: RTT integrates the overshoot. *)
    let overshoot = Float.max 0.0 (rate -. 20.0) /. 20.0 in
    rtt_state := Float.min 0.2 (Float.max base (!rtt_state +. (0.002 *. overshoot)));
    if rate < 20.0 then rtt_state := Float.max base (!rtt_state -. 0.001);
    !rtt_state
  in
  let c = drive ~seconds:40.0 ~rtt_of (p_config ()) in
  let r = Controller.rate_mbps c in
  if r < 10.0 || r > 32.0 then
    Alcotest.failf "did not settle near the 20 Mbps wall: %.1f" r

let test_mi_count_advances () =
  let c = drive ~seconds:5.0 ~rtt_of:(fun _ _ -> 0.03) (p_config ()) in
  (* ~30 ms MIs for 5 s: somewhere near 100 completed MIs. *)
  let n = Controller.mi_count c in
  if n < 40 || n > 250 then Alcotest.failf "odd MI count %d" n

let test_pacing_follows_rate () =
  (* Over one second, the number of packets sent must match the paced
     rate (within MI-probing wiggle). *)
  let cfg =
    { (p_config ()) with
      Controller.initial_rate_mbps = 12.0;
      min_rate_mbps = 12.0;
      max_rate_mbps = 12.0 }
  in
  let env = Net.Sender.make_env ~rng:(Proteus_stats.Rng.create ~seed:5) ~mtu:1500 () in
  let c = Controller.create cfg env in
  let sender = Net.Sender.pack (module Controller) c in
  let sim = Sim.create () in
  let sent = ref 0 in
  let rec pump () =
    let now = Sim.now sim in
    let ts = Net.Sender.next_send sender ~now in
    if ts <= now then begin
      incr sent;
      Net.Sender.on_sent sender ~now ~seq:!sent ~size:1500;
      Sim.after sim ~delay:0.03 (fun () ->
          Net.Sender.on_ack sender ~now:(Sim.now sim) ~seq:!sent ~send_time:now
            ~size:1500 ~rtt:0.03);
      pump ()
    end
    else if Float.is_finite ts then Sim.at sim ~time:ts pump
    else Alcotest.fail "blocked"
  in
  pump ();
  Sim.run ~until:10.0 sim;
  (* 12 Mbps = 1000 pkts/s for 10 s. *)
  let expected = 10_000 in
  if abs (!sent - expected) > expected / 10 then
    Alcotest.failf "sent %d packets, expected ~%d" !sent expected;
  check_float ~eps:1e-6 "rate pinned" 12.0 (Controller.rate_mbps c)

let suite =
  [
    ("climbs to max on free channel", `Slow, test_constant_rtt_climbs_to_max);
    ("stops at gradient wall", `Slow, test_gradient_wall_stops_climb);
    ("mi count advances", `Quick, test_mi_count_advances);
    ("pacing matches rate", `Quick, test_pacing_follows_rate);
  ]
