(* Sharded intra-trial event loop tests: component planning over flow
   routes, affine sequence partitioning, and the headline determinism
   claim — flow digests and fluid ledgers byte-identical for any shard
   count, with or without a domain pool, and invariant to the epoch
   window size when no fluid tier forces extra syncs. *)

module Net = Proteus_net
module Link = Net.Link
module Topology = Net.Topology
module Shard = Net.Shard
module Aggregate = Net.Aggregate
module Sim = Proteus_eventsim.Sim
module Pool = Proteus_parallel.Pool

let fmt_f v = Printf.sprintf "%.17g" v

let flow_digest sh i =
  let st = Shard.flow_stats sh i in
  let rtts = Net.Flow_stats.rtt_samples st ~t0:0.0 ~t1:infinity in
  let rtt_sum = Array.fold_left ( +. ) 0.0 rtts in
  Printf.sprintf "%s sent=%d acked=%d lost=%d dup=%d bytes=%s rtt_n=%d rtt_sum=%s"
    (Shard.flow_label sh i)
    (Net.Flow_stats.packets_sent st)
    (Net.Flow_stats.packets_acked st)
    (Net.Flow_stats.packets_lost st)
    (Net.Flow_stats.packets_dup_acked st)
    (fmt_f (Net.Flow_stats.bytes_acked st))
    (Array.length rtts) (fmt_f rtt_sum)

let digest sh =
  let flows =
    List.init (Shard.num_flows sh) (fun i -> flow_digest sh i)
  in
  let n_links = Net.Runner.num_links (Shard.runner_at sh 0) in
  let fluids =
    List.filter_map
      (fun i ->
        match Shard.fluid_totals sh i with
        | None -> None
        | Some (bin, bout, shed, backlog) ->
            Some
              (Printf.sprintf "link%d in=%s out=%s shed=%s backlog=%s" i
                 (fmt_f bin) (fmt_f bout) (fmt_f shed) (fmt_f backlog)))
      (List.init n_links Fun.id)
  in
  String.concat "\n" (flows @ fluids)

(* ---------- scenario builders ---------- *)

let edge_cfg =
  Link.config ~bandwidth_mbps:20.0 ~rtt_ms:24.0 ~buffer_bytes:150_000 ()

(* [farm n]: n independent full-duplex edges (fwd i, rev n+i), fluid on
   the even edges' forward links. *)
let farm ?(fluid = true) n =
  let topo = Topology.make (List.init (2 * n) (fun _ -> edge_cfg)) in
  let topo =
    if not fluid then topo
    else
      List.fold_left
        (fun t e ->
          Topology.with_fluid t ~link:e
            [
              Aggregate.cls ~label:"bg" ~responsiveness:0.5
                [ (0.0, 8.0); (1.0, 14.0); (2.0, 6.0) ];
            ])
        topo
        (List.filter (fun e -> e mod 2 = 0) (List.init n Fun.id))
  in
  let specs =
    List.concat_map
      (fun e ->
        let route = Topology.route topo ~fwd:[ e ] ~rev:[ n + e ] in
        [
          Shard.spec ~stop:3.0 ~route
            ~label:(Printf.sprintf "e%d-cubic" e)
            (Proteus_cc.Cubic.factory ());
          Shard.spec ~stop:3.0 ~route
            ~label:(Printf.sprintf "e%d-reno" e)
            (Proteus_cc.Reno.factory ());
        ])
      (List.init n Fun.id)
  in
  (topo, specs)

(* Two disjoint 3-hop chains (A: fwd 0-2 / rev 3-5, B: fwd 6-8 /
   rev 9-11), fluid on each chain's middle forward hop, an end-to-end
   flow plus a middle-hop crosser per chain. *)
let chains () =
  let topo = Topology.make (List.init 12 (fun _ -> edge_cfg)) in
  let topo =
    List.fold_left
      (fun t link ->
        Topology.with_fluid t ~link
          [ Aggregate.cls ~label:"bg" [ (0.0, 5.0); (1.5, 11.0) ] ])
      topo [ 1; 7 ]
  in
  let specs =
    List.concat_map
      (fun (tag, base) ->
        let fwd = [ base; base + 1; base + 2 ] in
        let rev = [ base + 5; base + 4; base + 3 ] in
        [
          Shard.spec ~stop:3.0
            ~route:(Topology.route topo ~fwd ~rev)
            ~label:(tag ^ "-e2e")
            (Proteus_cc.Cubic.factory ());
          Shard.spec ~stop:3.0
            ~route:(Topology.route topo ~fwd:[ base + 1 ] ~rev:[ base + 4 ])
            ~label:(tag ^ "-mid")
            (Proteus_cc.Reno.factory ());
        ])
      [ ("a", 0); ("b", 6) ]
  in
  (topo, specs)

let run_digest ?pool ?(epoch = 0.25) ~shards (topo, specs) =
  let sh = Shard.create ~seed:11 ~shards ~epoch topo specs in
  Shard.run ?pool sh ~until:4.0;
  Shard.assert_quiesced sh;
  (digest sh, sh)

(* ---------- planning units ---------- *)

let test_components () =
  (* 6 links; flows cross {0,3} and {2,5}; links 1 and 4 untouched.
     Components numbered by smallest member: {0,3} {1} {2,5} {4}. *)
  let topo = Topology.make (List.init 6 (fun _ -> edge_cfg)) in
  let spec_on ~fwd ~rev label =
    Shard.spec ~route:(Topology.route topo ~fwd ~rev) ~label
      (Proteus_cc.Cubic.factory ())
  in
  let comp =
    Shard.components topo
      [ spec_on ~fwd:[ 0 ] ~rev:[ 3 ] "x"; spec_on ~fwd:[ 2 ] ~rev:[ 5 ] "y" ]
  in
  Alcotest.(check (array int)) "component map" [| 0; 1; 2; 0; 3; 2 |] comp;
  let topo2, specs2 = chains () in
  Alcotest.(check (array int))
    "disjoint chains form two components"
    [| 0; 0; 0; 0; 0; 0; 1; 1; 1; 1; 1; 1 |]
    (Shard.components topo2 specs2)

let test_shard_assignment () =
  let sh =
    let topo, specs = farm 4 in
    Shard.create ~seed:11 ~shards:8 topo specs
  in
  Alcotest.(check int) "shards clamp to component count" 4 (Shard.num_shards sh);
  Alcotest.(check int) "all specs placed" 8 (Shard.num_flows sh);
  (* A flow and every link on its route live in the same shard. *)
  for i = 0 to Shard.num_flows sh - 1 do
    let e = i / 2 in
    Alcotest.(check int)
      (Printf.sprintf "flow %d owner matches its fwd link" i)
      (Shard.shard_of_link sh e)
      (Shard.shard_of_flow sh i);
    Alcotest.(check int)
      (Printf.sprintf "edge %d fwd/rev colocated" e)
      (Shard.shard_of_link sh e)
      (Shard.shard_of_link sh (4 + e))
  done

let test_seq_partition_guards () =
  let s = Sim.create () in
  Alcotest.check_raises "index out of range"
    (Invalid_argument "Sim.set_seq_partition: index 3 outside [0, 3)")
    (fun () -> Sim.set_seq_partition s ~index:3 ~count:3);
  Sim.set_seq_partition s ~index:1 ~count:3;
  let order = ref [] in
  Sim.at s ~time:1.0 (fun () -> order := 1 :: !order);
  Sim.at s ~time:0.5 (fun () -> order := 0 :: !order);
  Sim.at s ~time:1.0 (fun () -> order := 2 :: !order);
  Alcotest.check_raises "partition after scheduling"
    (Invalid_argument "Sim.set_seq_partition: events were already scheduled")
    (fun () -> Sim.set_seq_partition s ~index:0 ~count:2);
  Sim.run s;
  Alcotest.(check (list int)) "partitioned sim fires in schedule order"
    [ 0; 1; 2 ] (List.rev !order)

(* ---------- determinism goldens ---------- *)

let test_farm_parity () =
  let d1, _ = run_digest ~shards:1 (farm 4) in
  let d2, _ = run_digest ~shards:2 (farm 4) in
  let d4, sh4 = run_digest ~shards:4 (farm 4) in
  Alcotest.(check string) "shards=2 matches shards=1" d1 d2;
  Alcotest.(check string) "shards=4 matches shards=1" d1 d4;
  Alcotest.(check bool) "fluid ledger present in digest" true
    (Shard.fluid_totals sh4 0 <> None);
  (* And across domains: same plan fanned over a real pool. *)
  let pool = Pool.create ~jobs:3 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let dp, _ = run_digest ~pool ~shards:4 (farm 4) in
      Alcotest.(check string) "pooled shards=4 matches shards=1" d1 dp)

let test_chains_parity () =
  let d1, _ = run_digest ~shards:1 (chains ()) in
  let d2, sh2 = run_digest ~shards:2 (chains ()) in
  Alcotest.(check string) "two chains, shards=2 matches shards=1" d1 d2;
  Alcotest.(check int) "both components materialised" 2 (Shard.num_shards sh2)

(* Golden pin: MD5 of the two-shard farm digest, recorded when the
   dumbbell became a one-hop chain. A change here means events fire in
   a different order. *)
let test_farm_golden () =
  let d, _ = run_digest ~shards:2 (farm 2) in
  Alcotest.(check string) "farm digest MD5" "96136a438019ccdfb348b5a8c8e4078b"
    (Digest.to_hex (Digest.string d))

let test_epoch_invariance () =
  (* Without fluid, the epoch window is pure bookkeeping: horizons add
     no state, so any window size yields byte-identical results. *)
  let scenario () = farm ~fluid:false 3 in
  let d_fine, _ = run_digest ~epoch:0.1 ~shards:3 (scenario ()) in
  let d_coarse, _ = run_digest ~epoch:2.0 ~shards:3 (scenario ()) in
  let d_seq, _ = run_digest ~epoch:0.1 ~shards:1 (scenario ()) in
  Alcotest.(check string) "epoch 0.1 = epoch 2.0" d_fine d_coarse;
  Alcotest.(check string) "sharded = sequential" d_fine d_seq

let test_spec_validation () =
  let topo = Topology.dumbbell edge_cfg in
  let multi = Topology.make [ edge_cfg; edge_cfg ] in
  Alcotest.(check bool) "route required on multi-hop topology" true
    (try
       ignore
         (Shard.create multi
            [ Shard.spec ~label:"no-route" (Proteus_cc.Cubic.factory ()) ]);
       false
     with Invalid_argument _ -> true);
  let sh =
    Shard.create topo
      [ Shard.spec ~label:"classic" (Proteus_cc.Cubic.factory ()) ]
  in
  Alcotest.(check int) "classic dumbbell plans one shard" 1
    (Shard.num_shards sh)

let suite =
  [
    Alcotest.test_case "component planning" `Quick test_components;
    Alcotest.test_case "shard assignment" `Quick test_shard_assignment;
    Alcotest.test_case "seq partition guards and ordering" `Quick
      test_seq_partition_guards;
    Alcotest.test_case "edge farm: digest parity across shard counts"
      `Quick test_farm_parity;
    Alcotest.test_case "disjoint 3-hop chains: digest parity" `Quick
      test_chains_parity;
    Alcotest.test_case "edge farm: golden digest under sharding" `Quick
      test_farm_golden;
    Alcotest.test_case "epoch window invariance (no fluid)" `Quick
      test_epoch_invariance;
    Alcotest.test_case "spec validation" `Quick test_spec_validation;
  ]
