(* Event-kernel ordering tests. Covers the timing wheel directly
   (ordering, far-future clamping, counters, jumps across empty
   stretches), the kernel's firing order on random schedules against a
   naive (time, seq) oracle (handler cells, thunks and lanes mixed,
   behind-cursor re-entry, far-future events, sharded sequence
   numbers), and full network runs whose flow digests are pinned to
   golden values on the dumbbell and a 3-hop chain. *)

open Proteus_eventsim
module Net = Proteus_net
module Topology = Proteus_net.Topology

(* ---------- wheel structure ---------- *)

let test_wheel_orders () =
  let w = Wheel.create ~tick:1e-3 ~slots:8 () in
  (* Spread inserts across level 0, level 1 and past the clamp range;
     sequence numbers encode the expected global order. *)
  let entries =
    [ (0.004, 2); (0.0041, 3); (2.0, 5); (0.0005, 0); (500.0, 6);
      (0.002, 1); (1.0, 4) ]
  in
  List.iteri (fun id (time, seq) -> Wheel.insert w ~time ~seq ~id) entries;
  let order = List.init (List.length entries) (fun _ -> Wheel.extract w) in
  let expected =
    List.mapi (fun id (_, seq) -> (seq, id)) entries
    |> List.sort compare |> List.map snd
  in
  Alcotest.(check (list int)) "extraction order" expected order;
  Alcotest.(check int) "drained" 0 (Wheel.count w);
  Alcotest.(check bool) "cascaded for far entries" true (Wheel.cascades w > 0)

let test_wheel_equal_time_seq_ties () =
  let w = Wheel.create () in
  (* Same fire time, shuffled insert order: extraction must follow the
     sequence numbers exactly. *)
  List.iter
    (fun (seq, id) -> Wheel.insert w ~time:0.5 ~seq ~id)
    [ (3, 30); (0, 0); (2, 20); (1, 10) ];
  let order = List.init 4 (fun _ -> Wheel.extract w) in
  Alcotest.(check (list int)) "seq ties" [ 0; 10; 20; 30 ] order

let test_wheel_behind_cursor () =
  let w = Wheel.create ~tick:1e-3 ~slots:4 () in
  Wheel.insert w ~time:0.25 ~seq:0 ~id:0;
  Alcotest.(check int) "first" 0 (Wheel.extract w);
  (* The cursor now sits at 0.25; entries behind it must still come out
     in (time, seq) order, merged into the due batch. *)
  Wheel.insert w ~time:0.3 ~seq:3 ~id:3;
  Wheel.insert w ~time:0.1 ~seq:1 ~id:1;
  Wheel.insert w ~time:0.1 ~seq:2 ~id:2;
  let order = List.init 3 (fun _ -> Wheel.extract w) in
  Alcotest.(check (list int)) "behind-cursor merge" [ 1; 2; 3 ] order

(* Slot counts are powers of two (indices are masks); anything else is
   refused up front, not wrapped wrongly later. *)
let test_wheel_slot_counts () =
  List.iter
    (fun slots ->
      match Wheel.create ~slots () with
      | _ -> Alcotest.failf "slots=%d accepted" slots
      | exception Invalid_argument _ -> ())
    [ -4; 0; 1; 3; 6; 12; 100; 255; 257 ];
  List.iter
    (fun slots ->
      let w = Wheel.create ~tick:1e-3 ~slots () in
      (* Level 0, level 1 and the clamp range, out of order. *)
      List.iteri
        (fun id time -> Wheel.insert w ~time ~seq:id ~id)
        [ 0.0005; 0.0015; 0.9; 0.003; 700.0; 0.05 ];
      Alcotest.(check (list int))
        (Printf.sprintf "slots=%d order" slots)
        [ 0; 1; 3; 5; 2; 4 ]
        (List.init 6 (fun _ -> Wheel.extract w)))
    [ 2; 4; 64; 1024 ]

let prop_wheel_sorted_extraction =
  QCheck.Test.make ~name:"wheel extracts in (time, seq) order" ~count:200
    QCheck.(
      list_of_size Gen.(int_range 0 200)
        (float_bound_exclusive 5.0))
    (fun times ->
      let w = Wheel.create ~tick:1e-3 ~slots:16 () in
      List.iteri (fun seq time -> Wheel.insert w ~time ~seq ~id:seq) times;
      let popped = List.init (List.length times) (fun _ -> Wheel.extract w) in
      let expected =
        List.mapi (fun seq time -> (time, seq)) times
        |> List.sort compare |> List.map snd
      in
      popped = expected && Wheel.count w = 0)

(* Far-future entries are reached by cursor jumps, not by walking every
   tick in between (1e9 s is 1e12 ticks), and still fire in order among
   thunks and handler cells. *)
let test_far_future_jumps () =
  let sim = Sim.create () in
  let log = ref [] in
  let note i = log := (i, Sim.now sim) :: !log in
  let fn = Sim.register sim note in
  Sim.at_fn sim ~time:1e9 ~fn ~arg:2;
  Sim.at sim ~time:1e6 (fun () -> note 1);
  Sim.at_fn sim ~time:1.0 ~fn ~arg:0;
  Sim.run sim;
  Alcotest.(check (list (pair int (float 0.0))))
    "order and clock"
    [ (0, 1.0); (1, 1e6); (2, 1e9) ]
    (List.rev !log);
  let moves = Sim.wheel_ticks sim + Sim.wheel_cascades sim in
  if moves >= 10_000 then
    Alcotest.failf "%d ticks + cascades to reach 1e9 s" moves

(* ---------- reference replay ---------- *)

(* One random schedule, replayed on the kernel and on a naive oracle
   that keeps pending events in a list and always fires the least
   [(time, seq)]. Both sit behind the same interface, so the driver
   below issues the identical call sequence to each. *)
type kind = Fn | Thunk | Lane of int

type backend = {
  now : unit -> float;
  sched : kind -> float -> int -> unit; (* schedule label at time *)
  run : float -> unit; (* Sim.run ~until *)
}

let sim_backend sim fire =
  let lanes = [| Sim.lane sim; Sim.lane sim |] in
  let fn = Sim.register sim (fun i -> !fire i) in
  {
    now = (fun () -> Sim.now sim);
    sched =
      (fun kind time i ->
        match kind with
        | Fn -> Sim.at_fn sim ~time ~fn ~arg:i
        | Thunk -> Sim.at sim ~time (fun () -> !fire i)
        | Lane l ->
            Sim.lane_push sim lanes.(l) ~time ~seq:(Sim.reserve_seq sim) ~fn
              ~arg:i);
    run = (fun until -> Sim.run ~until sim);
  }

let oracle_backend fire =
  let clock = ref 0.0 and seq = ref 0 and pending = ref [] in
  let rec run until =
    match List.sort compare !pending with
    | [] -> if until > !clock && Float.is_finite until then clock := until
    | (time, _, _) :: _ when time > until -> clock := until
    | (time, _, i) :: rest ->
        pending := rest;
        clock := time;
        !fire i;
        run until
  in
  {
    now = (fun () -> !clock);
    sched =
      (fun _ time i ->
        pending := (Float.max time !clock, !seq, i) :: !pending;
        incr seq);
    run;
  }

(* Event [i] of the initial schedule reacts when it fires: a zero-delay
   follow-up lands behind the wheel cursor, [now + 100] lies beyond
   level 1's range (clamped, then refiled), a lane push at a short
   offset breaks the lane's monotonicity, and a thunk in the past is
   clamped to [now]. Follow-ups (labels >= 1000) do not react, so every
   schedule ends. Between the two runs a handler cell and a thunk are
   scheduled just after the mid-run clock: a far event may already have
   pulled the wheel's cursor past them. *)
let replay ops mk ~until =
  let log = ref [] and fire = ref ignore in
  let b = mk fire in
  (fire :=
     fun i ->
       log := i :: !log;
       if i < 1000 then begin
         let now = b.now () and j = 1000 + (10 * i) in
         if i mod 3 = 0 then b.sched Fn now j;
         if i mod 5 = 0 then b.sched Fn (now +. 100.0) (j + 1);
         if i mod 4 = 1 then begin
           b.sched (Lane (i land 1))
             (now +. (0.005 *. float_of_int (i mod 7)))
             (j + 2);
           b.sched Thunk (now -. 1.0) (j + 3)
         end
       end);
  List.iteri (fun i (kind, time) -> b.sched kind time i) ops;
  b.run until;
  let mid = b.now () in
  b.sched Fn (mid +. 0.5) 900_000;
  b.sched Thunk (mid +. 0.5) 900_001;
  b.run infinity;
  (List.rev !log, mid, b.now ())

let gen_time =
  QCheck.Gen.(
    frequency
      [
        (* coarse grid: equal-time ties are frequent *)
        (6, map (fun k -> float_of_int k *. 0.01) (int_range 0 300));
        (* straddles the ~65 s reach of level 1 *)
        (1, map (fun k -> 60.0 +. (float_of_int k *. 0.5)) (int_range 0 280));
        (* far future: past level 1's reach, up to 1e6 s and at 1e9 s *)
        (1, float_range 65.0 1e6);
        (1, map (fun k -> 1e9 +. float_of_int k) (int_range 0 3));
      ])

let gen_op =
  QCheck.Gen.(
    pair (oneofl [ Fn; Thunk; Lane 0; Lane 1 ]) gen_time)

let print_kind = function
  | Fn -> "Fn"
  | Thunk -> "Thunk"
  | Lane l -> Printf.sprintf "Lane %d" l

(* Run one schedule on the kernel (with [set_seq_partition] shard
   [index] of [count]) and on the oracle: the firing logs must match,
   as must the clock at the mid-run [~until] and at the end, and
   nothing may be left queued. *)
let matches_oracle (ops, (index, count), until) =
  let sim = Sim.create () in
  Sim.set_seq_partition sim ~index ~count;
  replay ops (sim_backend sim) ~until = replay ops oracle_backend ~until
  && Sim.pending sim = 0

let arb_schedule ~max_ops gen_op =
  QCheck.(
    make
      ~print:
        Print.(
          triple (list (pair print_kind string_of_float)) (pair int int)
            string_of_float)
      Gen.(
        triple
          (list_size (int_range 0 max_ops) gen_op)
          (* shard [index] of [count] *)
          ( int_range 1 3 >>= fun c ->
            map (fun i -> (i, c)) (int_range 0 (c - 1)) )
          (map (fun k -> float_of_int k *. 0.05) (int_range 0 80))))

(* The oracle's (time, seq) order is the order the former heap-only
   kernel fired in, which this property has always pinned; the name
   is kept from then. *)
let prop_oracle_order =
  QCheck.Test.make
    ~name:"wheel kernel fires in heap-kernel order: (time, seq) oracle"
    ~count:300
    (arb_schedule ~max_ops:150 gen_op)
    matches_oracle

(* ---------- golden flow digests ---------- *)

(* Structural digest of a finished run: packet counters plus a hash of
   every RTT sample and the final clock. Any change in event order
   shows up here (RTT series are order-sensitive). The chain value
   dates from the heap-only kernel mode, which produced the same
   digests; the dumbbell values were recorded when the dumbbell became
   a one-hop chain. *)
let digest r fs =
  let h = ref 0 in
  let add x = h := (!h * 1000003) lxor Hashtbl.hash x in
  List.iter
    (fun f ->
      let st = Net.Runner.stats f in
      add (Net.Flow_stats.packets_sent st);
      add (Net.Flow_stats.packets_acked st);
      add (Net.Flow_stats.packets_lost st);
      add (Net.Flow_stats.packets_dup_acked st);
      add (Net.Flow_stats.bytes_acked st);
      Array.iter add (Net.Flow_stats.rtt_samples st ~t0:0.0 ~t1:infinity))
    fs;
  add (Sim.now (Net.Runner.sim r));
  !h

let dumbbell_digest ~noise ~loss =
  let cfg =
    Net.Link.config ~bandwidth_mbps:50.0 ~rtt_ms:30.0 ~buffer_bytes:375_000
      ?noise:(if noise then Some Net.Noise.default_wifi else None)
      ?loss_rate:(if loss then Some 0.01 else None)
      ()
  in
  let r = Net.Runner.create ~seed:7 cfg in
  let a =
    Net.Runner.add_flow r ~label:"a" ~factory:(Proteus_cc.Cubic.factory ())
  in
  let b =
    Net.Runner.add_flow r ~label:"b" ~factory:(Proteus.Presets.proteus_s ())
  in
  Net.Runner.run r ~until:5.0;
  digest r [ a; b ]

let test_dumbbell_parity () =
  List.iter
    (fun (noise, loss, golden) ->
      Alcotest.(check int)
        (Printf.sprintf "dumbbell noise=%b loss=%b" noise loss)
        golden
        (dumbbell_digest ~noise ~loss))
    [
      (false, false, -1182216121751009406);
      (true, false, -4203729195088646409);
      (false, true, 3787513253966182150);
      (true, true, -4120896044740672251);
    ]

let chain_digest () =
  let mk bw =
    Net.Link.config ~bandwidth_mbps:bw ~rtt_ms:20.0 ~buffer_bytes:150_000 ()
  in
  let topo = Topology.chain [ mk 20.0; mk 12.0; mk 30.0 ] in
  let r = Net.Runner.create_topo ~seed:23 topo in
  let e2e =
    Net.Runner.add_flow r ~route:(Topology.chain_route topo) ~label:"e2e"
      ~factory:(Proteus.Presets.proteus_s ())
  in
  let cross =
    List.init 3 (fun hop ->
        Net.Runner.add_flow r
          ~route:(Topology.hop_route topo ~hop)
          ~label:(Printf.sprintf "x%d" hop)
          ~factory:(Proteus_cc.Cubic.factory ()))
  in
  Net.Runner.run r ~until:5.0;
  digest r (e2e :: cross)

let test_chain_parity () =
  Alcotest.(check int) "3-hop chain digest" 880802862608330761 (chain_digest ())

let suite =
  [
    Alcotest.test_case "wheel: mixed-range ordering" `Quick test_wheel_orders;
    Alcotest.test_case "wheel: equal-time seq ties" `Quick
      test_wheel_equal_time_seq_ties;
    Alcotest.test_case "wheel: behind-cursor merge" `Quick
      test_wheel_behind_cursor;
    Alcotest.test_case "wheel: power-of-two slot counts" `Quick
      test_wheel_slot_counts;
    QCheck_alcotest.to_alcotest prop_wheel_sorted_extraction;
    Alcotest.test_case "wheel: far-future jumps" `Quick test_far_future_jumps;
    QCheck_alcotest.to_alcotest prop_oracle_order;
    Alcotest.test_case "digest parity: dumbbell" `Slow test_dumbbell_parity;
    Alcotest.test_case "digest parity: 3-hop chain" `Slow test_chain_parity;
  ]
