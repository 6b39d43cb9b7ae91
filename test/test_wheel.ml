(* Event-kernel ordering tests. Covers the binary heap that stores
   every pooled cell directly (ordering, ties, entries below an already
   extracted one, growth, interleaved inserts and extracts against a
   sorted-list oracle), the kernel's firing order on random schedules
   against a naive (time, seq) oracle (handler cells, thunks and lanes
   mixed, re-entry at [now], far-future events, sharded sequence
   numbers), and full network runs whose flow digests are pinned to
   golden values on the dumbbell and a 3-hop chain. The suite and the
   older case names keep the "wheel" of the timing wheel the heap
   replaced. *)

open Proteus_eventsim
module Net = Proteus_net
module Topology = Proteus_net.Topology

(* ---------- heap structure ---------- *)

let rec drain h =
  if Heap.is_empty h then []
  else
    let id = Heap.extract h in
    id :: drain h

let test_heap_orders () =
  let h = Heap.create () in
  (* Times from a millisecond to far ahead; sequence numbers encode the
     expected global order. *)
  let entries =
    [ (0.004, 2); (0.0041, 3); (2.0, 5); (0.0005, 0); (500.0, 6);
      (0.002, 1); (1.0, 4) ]
  in
  List.iteri (fun id (time, seq) -> Heap.insert h ~time ~seq ~id) entries;
  let order = drain h in
  let expected =
    List.mapi (fun id (_, seq) -> (seq, id)) entries
    |> List.sort compare |> List.map snd
  in
  Alcotest.(check (list int)) "extraction order" expected order;
  Alcotest.(check bool) "drained" true (Heap.is_empty h);
  match Heap.extract h with
  | _ -> Alcotest.fail "extract from an empty heap"
  | exception Invalid_argument _ -> ()

let test_heap_equal_time_seq_ties () =
  let h = Heap.create () in
  (* Same fire time, shuffled insert order: extraction must follow the
     sequence numbers exactly. *)
  List.iter
    (fun (seq, id) -> Heap.insert h ~time:0.5 ~seq ~id)
    [ (3, 30); (0, 0); (2, 20); (1, 10) ];
  Alcotest.(check (list int)) "seq ties" [ 0; 10; 20; 30 ] (drain h)

let test_heap_below_extracted () =
  let h = Heap.create () in
  Heap.insert h ~time:0.25 ~seq:0 ~id:0;
  Alcotest.(check int) "first" 0 (Heap.extract h);
  (* Entries earlier than one already extracted still come out in
     (time, seq) order. *)
  Heap.insert h ~time:0.3 ~seq:3 ~id:3;
  Heap.insert h ~time:0.1 ~seq:1 ~id:1;
  Heap.insert h ~time:0.1 ~seq:2 ~id:2;
  Alcotest.(check (float 0.0)) "top time" 0.1 (Heap.top_time h);
  Alcotest.(check int) "top seq" 1 (Heap.top_seq h);
  Alcotest.(check (list int)) "earlier entries first" [ 1; 2; 3 ] (drain h)

(* Random inserts and extracts, interleaved, against a sorted list.
   Times come from a coarse grid, so equal times with distinct seqs are
   frequent. Each case opens with 17 to 60 inserts, past the heap's
   first capacity of 16, so every case grows it. Every extract checks
   the top it read first. *)
let prop_heap_oracle =
  let op =
    QCheck.Gen.(
      frequency [ (2, return None); (3, map Option.some (int_range 0 20)) ])
  in
  QCheck.Test.make ~name:"heap vs sorted-list oracle" ~count:300
    QCheck.(
      make
        ~print:
          Print.(
            list (function
              | None -> "extract"
              | Some k -> Printf.sprintf "insert %d" k))
        Gen.(
          map2 ( @ )
            (list_size (int_range 17 60) (map Option.some (int_range 0 20)))
            (list_size (int_range 0 400) op)))
    (fun ops ->
      let h = Heap.create () in
      let oracle = ref [] and seq = ref 0 in
      let step = function
        | Some k ->
            let time = float_of_int k *. 0.01 and id = !seq * 7 in
            Heap.insert h ~time ~seq:!seq ~id;
            oracle := (time, !seq, id) :: !oracle;
            incr seq;
            true
        | None -> (
            match List.sort compare !oracle with
            | [] -> Heap.is_empty h
            | (time, s, id) :: rest ->
                oracle := rest;
                Heap.top_time h = time
                && Heap.top_seq h = s
                && Heap.extract h = id)
      in
      List.for_all step ops
      && drain h = List.map (fun (_, _, id) -> id) (List.sort compare !oracle))

(* Far-future events fire in order among thunks and handler cells, and
   the clock lands on each of them exactly. *)
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
    (List.rev !log)

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
   follow-up lands at [now], among events already due, [now + 100]
   lands far ahead, a lane push at a short offset breaks the lane's
   monotonicity (so it goes to the heap), and a thunk in the past is
   clamped to [now]. Follow-ups (labels >= 1000) do not react, so every
   schedule ends. Between the two runs a handler cell and a thunk are
   scheduled just after the mid-run clock, earlier than far events
   already queued. *)
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
        (* around a minute ahead *)
        (1, map (fun k -> 60.0 +. (float_of_int k *. 0.5)) (int_range 0 280));
        (* far future: up to 1e6 s and at 1e9 s *)
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

(* The oracle's (time, seq) order is the order every kernel of this
   project has fired in, which this property has always pinned; the
   name is kept from the timing-wheel kernel it first checked. *)
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
    Alcotest.test_case "wheel: mixed-range ordering" `Quick test_heap_orders;
    Alcotest.test_case "wheel: equal-time seq ties" `Quick
      test_heap_equal_time_seq_ties;
    Alcotest.test_case "wheel: behind-cursor merge" `Quick
      test_heap_below_extracted;
    QCheck_alcotest.to_alcotest prop_heap_oracle;
    Alcotest.test_case "wheel: far-future jumps" `Quick test_far_future_jumps;
    QCheck_alcotest.to_alcotest prop_oracle_order;
    Alcotest.test_case "digest parity: dumbbell" `Slow test_dumbbell_parity;
    Alcotest.test_case "digest parity: 3-hop chain" `Slow test_chain_parity;
  ]
