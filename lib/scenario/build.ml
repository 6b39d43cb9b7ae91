(* Compile a validated Spec.t onto the existing Topology/Runner stack
   and execute it: the bridge between the declarative layer and the
   packet-level simulator. Everything here reuses the constructors the
   hand-written bench experiments call — a spec-driven run of a
   scenario is bit-identical to its hand-written twin given the same
   seed (test_scenario pins this with golden digests). *)

module Net = Proteus_net
module Topology = Net.Topology
module Runner = Net.Runner
module D = Proteus_stats.Descriptive

let fail fmt = Printf.ksprintf failwith fmt

let classes_of (fl : Spec.fluid) =
  List.map
    (fun (c : Spec.fluid_class) ->
      Net.Aggregate.cls ~flows:c.c_flows ~responsiveness:c.c_responsiveness
        ~label:c.c_label c.c_envelope)
    fl.f_classes

let topology (t : Spec.t) =
  let base =
    match t.topology with
    | Spec.Dumbbell cfg -> Topology.dumbbell cfg
    | Spec.Chain links -> Topology.chain links
    | Spec.Parking_lot { hops; link; _ } ->
        Topology.chain (List.init hops (fun _ -> link))
  in
  List.fold_left
    (fun topo (fl : Spec.fluid) ->
      Topology.with_fluid ?buffer_share:fl.f_buffer_share topo ~link:fl.f_link
        (classes_of fl))
    base t.fluids

let route_for topo (t : Spec.t) (r : Spec.route) =
  match (t.topology, r) with
  | Spec.Dumbbell _, (Spec.Hop _ | Spec.Rev) ->
      fail "dumbbell flows must take the end-to-end route"
  | _, Spec.E2e -> Some (Topology.chain_route topo)
  | _, Spec.Hop h -> Some (Topology.hop_route topo ~hop:h)
  | _, Spec.Rev ->
      (* Data retraces the reverse links; ACKs ride the forward hops. *)
      let n = Topology.chain_hops topo in
      Some
        (Topology.route topo
           ~fwd:(List.init n (fun i -> (2 * n) - 1 - i))
           ~rev:(List.init n (fun i -> i)))

let instantiate ?trace ?kernel ~seed (t : Spec.t) =
  let topo = topology t in
  let r = Runner.create_topo ?trace ?kernel ~seed topo in
  let declared =
    List.map
      (fun (f : Spec.flow) ->
        let factory =
          let built =
            match f.dp with
            | None -> Protocols.factory f.cc
            | Some d ->
                Protocols.datapath_factory ?interval:d.dp_interval
                  ~consts:d.dp_consts f.cc
          in
          match built with
          | Ok f -> f
          | Error e -> fail "flow %s: %s" f.label e
        in
        let size_bytes =
          Option.map (fun mb -> int_of_float (mb *. 1e6)) f.size_mb
        in
        ( f.label,
          Runner.add_flow r ~start:f.start ?stop:f.stop ?size_bytes
            ?route:(route_for topo t f.route) ~label:f.label ~factory ))
      t.flows
  in
  let crosses =
    match t.topology with
    | Spec.Parking_lot { hops; cross; _ } ->
        List.init hops (fun hop ->
            let label = Printf.sprintf "cross%d" hop in
            let factory =
              match Protocols.factory cross with
              | Ok f -> f
              | Error e -> fail "cross flow: %s" e
            in
            ( label,
              Runner.add_flow r
                ~route:(Topology.hop_route topo ~hop)
                ~label ~factory ))
    | _ -> []
  in
  (r, declared @ crosses)

let metric_values (t : Spec.t) flows =
  let t0 = t.measure_from and t1 = t.duration in
  let stats label =
    match List.assoc_opt label flows with
    | Some f -> Runner.stats f
    | None -> fail "metric references unknown flow %S" label
  in
  let tput label = Net.Flow_stats.throughput_mbps (stats label) ~t0 ~t1 in
  let all_tputs () =
    Array.of_list (List.map (fun (l, _) -> tput l) flows)
  in
  List.map
    (fun m ->
      let v =
        match m with
        | Spec.Tput l -> tput l
        | Spec.Mean_rtt l ->
            let rtts = Net.Flow_stats.rtt_samples (stats l) ~t0 ~t1 in
            if Array.length rtts = 0 then 0.0 else 1000.0 *. D.mean rtts
        | Spec.P95_rtt l ->
            Option.fold ~none:0.0 ~some:(fun r -> 1000.0 *. r)
              (Net.Flow_stats.rtt_percentile (stats l) ~t0 ~t1 ~p:95.0)
        | Spec.Loss l -> Net.Flow_stats.loss_fraction (stats l)
        | Spec.Total_tput -> Array.fold_left ( +. ) 0.0 (all_tputs ())
        | Spec.Fairness -> D.jain_index (all_tputs ())
      in
      (* Degenerate windows (e.g. Jain over all-zero throughputs) must
         not leak non-finite values into journals or the gate. *)
      let v = if Float.is_finite v then v else 0.0 in
      (Spec.metric_name m, v))
    t.metrics

let run_metrics ?trace ?kernel ?(audit = true) ?arm ~seed (t : Spec.t) =
  let r, flows = instantiate ?trace ?kernel ~seed t in
  (match arm with Some f -> f r | None -> ());
  let _aud = if audit then Some (Runner.attach_audit r) else None in
  Runner.run r ~until:t.duration;
  metric_values t flows
