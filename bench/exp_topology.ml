(* Topology smoke, wired into `dune runtest` via @topology-smoke. The
   topology sweep itself is the scenario corpus under
   scenarios/topology, run by the `topology` bench id through
   Exp_matrix.sweep. *)

module Net = Proteus_net
module Link = Net.Link

let parking_hops = 3
let hop_bw = 40.0

let hop_cfg () =
  Link.config ~bandwidth_mbps:hop_bw ~rtt_ms:20.0 ~buffer_bytes:150_000 ()

let rev_cfg () =
  Link.config ~bandwidth_mbps:30.0 ~rtt_ms:30.0 ~buffer_bytes:150_000 ()

let protos =
  List.map Exp_common.proto
    [ "proteus-p"; "proteus-s"; "cubic"; "bbr"; "copa"; "ledbat-100" ]

(* A short parking-lot run per protocol with the auditor attached: the
   e2e flow and the per-hop crosses stop at t=4 and the final second
   drains every in-flight packet, so full per-hop conservation can be
   asserted. Also checks per-hop loss attribution sums to each flow's
   total. A reverse-path leg exercises reverse routes under audit, and
   an impaired-reverse-hop leg runs ACK noise, reordering, duplication
   and an RTT cut on every reverse hop of a two-hop chain, shared by the
   end-to-end flow's ACKs and the crosses', with the trace bus on. *)
let smoke () =
  Exp_common.header
    "Topology smoke: 3-hop parking lot + rev-path + impaired reverse hops, \
     auditor on";
  List.iter
    (fun (p : Exp_common.proto) ->
      let topo =
        Net.Topology.chain (List.init parking_hops (fun _ -> hop_cfg ()))
      in
      let r = Net.Runner.create_topo ~seed:11 topo in
      let audit = Net.Runner.attach_audit r in
      let e2e =
        Net.Runner.add_flow r
          ~route:(Net.Topology.chain_route topo)
          ~stop:4.0 ~label:p.Exp_common.name
          ~factory:(p.Exp_common.make ())
      in
      let crosses =
        List.init parking_hops (fun hop ->
            Net.Runner.add_flow r
              ~route:(Net.Topology.hop_route topo ~hop)
              ~stop:4.0
              ~label:(Printf.sprintf "cross%d" hop)
              ~factory:(Exp_common.cubic.Exp_common.make ()))
      in
      Net.Runner.run r ~until:5.0;
      Net.Audit.assert_quiesced audit;
      List.iter
        (fun f ->
          let st = Net.Runner.stats f in
          let by_hop = Array.fold_left ( + ) 0 (Net.Flow_stats.losses_by_hop st) in
          if by_hop <> Net.Flow_stats.packets_lost st then
            failwith
              (Printf.sprintf "%s: per-hop losses %d <> total %d"
                 (Net.Runner.label f) by_hop
                 (Net.Flow_stats.packets_lost st)))
        (e2e :: crosses);
      let st = Net.Runner.stats e2e in
      Printf.printf
        "%-12s ok  (%d hop events audited, %d sent / %d acked / %d lost)\n"
        p.Exp_common.name
        (Net.Audit.hop_events_checked audit)
        (Net.Flow_stats.packets_sent st)
        (Net.Flow_stats.packets_acked st)
        (Net.Flow_stats.packets_lost st))
    protos;
  let topo = Net.Topology.chain [ rev_cfg () ] in
  let r = Net.Runner.create_topo ~seed:11 topo in
  let audit = Net.Runner.attach_audit r in
  let probe =
    Net.Runner.add_flow r
      ~route:(Net.Topology.chain_route topo)
      ~stop:4.0 ~label:"probe"
      ~factory:(Exp_common.proteus_s.Exp_common.make ())
  in
  let congestor =
    Net.Runner.add_flow r
      ~route:(Net.Topology.route topo ~fwd:[ 1 ] ~rev:[ 0 ])
      ~stop:4.0 ~label:"rev-congestor"
      ~factory:(Exp_common.cubic.Exp_common.make ())
  in
  Net.Runner.run r ~until:5.0;
  Net.Audit.assert_quiesced audit;
  Printf.printf "rev-path     ok  (probe %d acked, congestor %d acked)\n"
    (Net.Flow_stats.packets_acked (Net.Runner.stats probe))
    (Net.Flow_stats.packets_acked (Net.Runner.stats congestor));
  let knobs =
    Link.config ~noise:Net.Noise.default_wifi ~reorder_prob:0.02 ~dup_prob:0.02
      ~schedule:[ (2.0, Link.Set_rtt 10.0) ]
      ~bandwidth_mbps:hop_bw ~rtt_ms:30.0 ~buffer_bytes:150_000 ()
  in
  let topo = Net.Topology.chain ~rev:[ knobs; knobs ] [ hop_cfg (); hop_cfg () ] in
  let trace = Proteus_obs.Trace.create ~capacity:(1 lsl 18) () in
  let r = Net.Runner.create_topo ~seed:11 ~trace topo in
  let audit = Net.Runner.attach_audit r in
  let e2e =
    Net.Runner.add_flow r ~stop:4.0 ~label:"e2e"
      ~factory:(Exp_common.proteus_s.Exp_common.make ())
  in
  let crosses =
    List.init 2 (fun hop ->
        Net.Runner.add_flow r
          ~route:(Net.Topology.hop_route topo ~hop)
          ~stop:4.0
          ~label:(Printf.sprintf "cross%d" hop)
          ~factory:(Exp_common.cubic.Exp_common.make ()))
  in
  Net.Runner.run r ~until:5.0;
  Net.Audit.assert_quiesced audit;
  if Proteus_obs.Trace.dropped trace > 0 then
    failwith
      (Printf.sprintf "rev-knobs: %d trace events dropped"
         (Proteus_obs.Trace.dropped trace));
  let dups =
    List.fold_left
      (fun acc f ->
        acc + Net.Flow_stats.packets_dup_acked (Net.Runner.stats f))
      0 (e2e :: crosses)
  in
  Printf.printf "rev-knobs    ok  (%d hop events audited, e2e %d acked, %d dup acks)\n"
    (Net.Audit.hop_events_checked audit)
    (Net.Flow_stats.packets_acked (Net.Runner.stats e2e))
    dups;
  Printf.printf "topology-smoke: all %d protocols clean\n" (List.length protos)
