(* proteus-sim: run ad-hoc congestion-control scenarios from the
   command line.

   Examples:
     proteus-sim cubic proteus-s@10
         CUBIC from t=0, a Proteus-S scavenger joining at t=10 s.
     proteus-sim --bw 100 --rtt 60 --buffer-kb 1500 bbr ledbat
     proteus-sim --noise wifi --series 1 proteus-p
     proteus-sim --loss 0.02 vivace cubic:50
         50 MB finite CUBIC transfer under 2% random loss.
     proteus-sim --topology chain3 proteus-s cubic%0 cubic%1 cubic%2
         parking lot: a Proteus-S scavenger end-to-end over three hops,
         one CUBIC cross flow per hop.
     proteus-sim --topology chain1 cubic blaster=40%rev
         reverse-path congestion: a 40 Mbps blaster on the ACK path.

   Flow spec: PROTO[%HOP|%rev][@START_SECONDS][:SIZE_MB]
     %HOP pins the flow to a single hop of a chain topology; %rev runs
     it end-to-end in the reverse direction (its data shares the other
     flows' ACK path). Default: end-to-end forward.
   Protocols: cubic bbr bbr-s copa ledbat ledbat-25 vivace
              proteus-p proteus-s blaster=RATE_MBPS *)

module Net = Proteus_net
module Scn = Proteus_scenario

(* One protocol registry for the whole repo: the scenario language and
   this CLI resolve names through the same table. *)
let protocol_factory = Scn.Protocols.factory

type route_spec = Forward | Hop of int | Reverse

type flow_spec = {
  proto : string;
  start : float;
  size_mb : float option;
  route : route_spec;
}

let parse_flow_spec s : (flow_spec, string) result =
  let proto_part, size_mb =
    match String.index_opt s ':' with
    | Some i -> (
        let sz = String.sub s (i + 1) (String.length s - i - 1) in
        match float_of_string_opt sz with
        | Some mb ->
            (String.sub s 0 i, Some mb)
        | None -> (s, None))
    | None -> (s, None)
  in
  let name_part, start =
    match String.index_opt proto_part '@' with
    | Some i -> (
        let name = String.sub proto_part 0 i in
        let st =
          String.sub proto_part (i + 1) (String.length proto_part - i - 1)
        in
        match float_of_string_opt st with
        | Some start -> (Ok name, start)
        | None -> (Error (Printf.sprintf "bad start time in %S" s), 0.0))
    | None -> (Ok proto_part, 0.0)
  in
  match name_part with
  | Error e -> Error e
  | Ok name -> (
      match String.index_opt name '%' with
      | None -> Ok { proto = name; start; size_mb; route = Forward }
      | Some i -> (
          let proto = String.sub name 0 i in
          let r = String.sub name (i + 1) (String.length name - i - 1) in
          match (r, int_of_string_opt r) with
          | "rev", _ -> Ok { proto; start; size_mb; route = Reverse }
          | _, Some hop when hop >= 0 ->
              Ok { proto; start; size_mb; route = Hop hop }
          | _ -> Error (Printf.sprintf "bad route %S in %S (want %%N or %%rev)" r s)))

let parse_noise = function
  | "none" -> Ok Net.Noise.None_
  | "wifi" -> Ok Net.Noise.default_wifi
  | s when String.length s > 9 && String.sub s 0 9 = "gaussian:" -> (
      match float_of_string_opt (String.sub s 9 (String.length s - 9)) with
      | Some sigma_ms -> Ok (Net.Noise.Gaussian { sigma_ms })
      | None -> Error "bad gaussian sigma")
  | s -> Error (Printf.sprintf "unknown noise model %S" s)

(* The number of hops of a chain: "dumbbell" is the one-hop chain, and
   "chainN" builds an N-hop chain whose per-hop propagation delays split
   --rtt evenly, so the end-to-end base RTT is unchanged. *)
let parse_topology = function
  | "dumbbell" -> Ok 1
  | s when String.length s > 5 && String.sub s 0 5 = "chain" -> (
      match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (Printf.sprintf "bad chain length in %S" s))
  | s -> Error (Printf.sprintf "unknown topology %S (want dumbbell or chainN)" s)

module Obs = Proteus_obs

(* --scenario FILE: run a declarative scenario spec (see scenarios/
   and DESIGN.md §5f) instead of command-line flow specs. The link /
   flow / duration flags are ignored — the file is the scenario — but
   observability (--trace/--metrics/--manifest/--series), budgets and
   --seed compose. A gridded scenario runs its first combination. *)
let run_scenario ~path ~seed:seed_opt ~series ~trace_file ~metrics_file
    ~manifest_file ~wall_budget ~stall_budget ~event_budget =
  let fatal e =
    prerr_endline ("proteus-sim: " ^ e);
    exit 1
  in
  let tmpl =
    match Scn.Grid.load_file path with Ok t -> t | Error e -> fatal e
  in
  let insts =
    match Scn.Grid.expand tmpl ~trials:1 with Ok l -> l | Error e -> fatal e
  in
  let inst = List.hd insts in
  if List.length insts > 1 then
    Printf.printf
      "(scenario expands to %d combinations; running the first: %s)\n"
      (List.length insts) inst.Scn.Grid.id;
  let spec = inst.Scn.Grid.spec in
  let seed = Option.value seed_opt ~default:inst.Scn.Grid.seed in
  let trace =
    match trace_file with
    | Some _ -> Obs.Trace.create ()
    | None -> Obs.Trace.disabled
  in
  let duration = spec.Scn.Spec.duration in
  let t0 = spec.Scn.Spec.measure_from in
  let runner, flows = Scn.Build.instantiate ~trace ~seed spec in
  let outcome =
    Proteus_harness.Supervisor.run
      ~budget:
        {
          Proteus_harness.Supervisor.max_events = event_budget;
          max_sim_time = None;
          wall_s = wall_budget;
          stall_s = stall_budget;
        }
      (fun () ->
        Proteus_harness.Supervisor.arm_runner runner;
        Net.Runner.run runner ~until:duration)
  in
  Printf.printf "scenario: %s (%s), seed %d, %g s (measuring from %g s)\n\n"
    spec.Scn.Spec.name inst.Scn.Grid.id seed duration t0;
  Printf.printf "%-16s %10s %10s %9s %9s %10s\n" "flow" "tput Mbps" "p95 ms"
    "loss %" "pkts" "done";
  List.iter
    (fun (label, flow) ->
      let st = Net.Runner.stats flow in
      Printf.printf "%-16s %10.2f %10.1f %9.3f %9d %10s\n" label
        (Net.Flow_stats.throughput_mbps st ~t0 ~t1:duration)
        (match Net.Flow_stats.rtt_percentile st ~t0 ~t1:duration ~p:95.0 with
        | Some r -> Net.Units.sec_to_ms r
        | None -> nan)
        (100.0 *. Net.Flow_stats.loss_fraction st)
        (Net.Flow_stats.packets_sent st)
        (match Net.Runner.completion_time flow with
        | Some t -> Printf.sprintf "t=%.1fs" t
        | None -> if Net.Runner.is_complete flow then "yes" else "-"))
    flows;
  let metric_vals =
    Scn.Build.metric_values
      ~baselines:(Scn.Build.baselines ~audit:false ~seed spec)
      spec flows
  in
  Printf.printf "\nmetrics:\n";
  List.iter
    (fun (k, v) -> Printf.printf "  %-24s %.4f\n" k v)
    metric_vals;
  (match series with
  | Some bin when bin > 0.0 ->
      Printf.printf "\nthroughput series (Mbps per %.1f s bin):\n" bin;
      List.iter
        (fun (label, flow) ->
          let s =
            Net.Flow_stats.throughput_series (Net.Runner.stats flow) ~bin
              ~until:duration
          in
          Printf.printf "%-16s" label;
          Array.iter (fun (_, m) -> Printf.printf "%6.1f" m) s;
          print_newline ())
        flows
  | _ -> ());
  (match trace_file with
  | Some path ->
      Obs.Export.trace_to_file ~path trace;
      Printf.printf "\n(wrote %s: %d events, %d dropped by wraparound)\n" path
        (Obs.Trace.length trace) (Obs.Trace.dropped trace);
      Obs.Export.warn_dropped ~label:path trace
  | None -> ());
  let registry =
    match (metrics_file, manifest_file) with
    | None, None -> None
    | _ ->
        let reg = Obs.Metrics.create () in
        Net.Runner.snapshot_metrics runner reg;
        Some reg
  in
  (match (metrics_file, registry) with
  | Some path, Some reg ->
      Obs.Export.metrics_to_file ~path reg;
      Printf.printf "(wrote %s)\n" path
  | _ -> ());
  (match manifest_file with
  | Some mpath ->
      Obs.Manifest.write ~path:mpath ~run:"proteus-sim" ~seed
        ~scenario:inst.Scn.Grid.id
        ~params:
          [
            ("scenario_file", path);
            ("combo", inst.Scn.Grid.combo);
            ("duration_s", Printf.sprintf "%g" duration);
            ("measure_from_s", Printf.sprintf "%g" t0);
            ("outcome", Proteus_harness.Outcome.label outcome);
          ]
        ~metrics:metric_vals ?registry ();
      Printf.printf "(wrote %s)\n" mpath
  | None -> ());
  match outcome with
  | Proteus_harness.Outcome.Completed () -> 0
  | o ->
      Printf.eprintf "proteus-sim: run failed: %s (stats above are partial)\n"
        (Proteus_harness.Outcome.describe o);
      2

(* Exit codes: 0 = clean run, 2 = the supervised simulation failed
   (crash / audit violation / budget) but was reported, 1 = usage or
   internal error. *)
let run bw rtt buffer_kb loss noise duration seed_opt series topology
    scenario_file trace_file metrics_file manifest_file wall_budget
    stall_budget event_budget specs =
  match scenario_file with
  | Some path ->
      if specs <> [] then begin
        prerr_endline "proteus-sim: --scenario and flow specs are exclusive";
        exit 1
      end;
      run_scenario ~path ~seed:seed_opt ~series ~trace_file ~metrics_file
        ~manifest_file ~wall_budget ~stall_budget ~event_budget
  | None ->
  let seed = Option.value seed_opt ~default:42 in
  match
    ( List.map parse_flow_spec specs
      |> List.fold_left
           (fun acc r ->
             match (acc, r) with
             | Error e, _ -> Error e
             | Ok l, Ok v -> Ok (v :: l)
             | Ok _, Error e -> Error e)
           (Ok [])
      |> Result.map List.rev,
      parse_noise noise,
      parse_topology topology )
  with
  | Error e, _, _ | _, Error e, _ | _, _, Error e ->
      prerr_endline ("proteus-sim: " ^ e);
      exit 1
  | Ok flows, Ok noise_spec, Ok hops ->
      if flows = [] then begin
        prerr_endline "proteus-sim: no flows given (try: proteus-sim cubic)";
        exit 1
      end;
      let cfg ~rtt_ms =
        Net.Link.config ~loss_rate:loss ~noise:noise_spec ~bandwidth_mbps:bw
          ~rtt_ms
          ~buffer_bytes:(Net.Units.kb buffer_kb)
          ()
      in
      let trace =
        match trace_file with
        | Some _ -> Obs.Trace.create ()
        | None -> Obs.Trace.disabled
      in
      let topo =
        Net.Topology.chain
          (List.init hops (fun _ -> cfg ~rtt_ms:(rtt /. float_of_int hops)))
      in
      let runner = Net.Runner.create_topo ~seed ~trace topo in
      let route_for spec =
        match spec.route with
        | Forward -> None
        | Hop h ->
            if h >= hops then begin
              prerr_endline
                (Printf.sprintf
                   "proteus-sim: hop %d out of range (chain has %d hops)" h
                   hops);
              exit 1
            end;
            Some (Net.Topology.hop_route topo ~hop:h)
        | Reverse ->
            (* Data retraces the reverse links; its ACKs ride the other
               flows' forward links. *)
            Some
              (Net.Topology.route topo
                 ~fwd:(List.init hops (fun i -> (2 * hops) - 1 - i))
                 ~rev:(List.init hops (fun i -> i)))
      in
      let handles =
        List.mapi
          (fun i spec ->
            match protocol_factory spec.proto with
            | Error e ->
                prerr_endline ("proteus-sim: " ^ e);
                exit 1
            | Ok factory ->
                let label = Printf.sprintf "%s#%d" spec.proto i in
                let size_bytes =
                  Option.map (fun mb -> int_of_float (mb *. 1e6)) spec.size_mb
                in
                ( spec,
                  Net.Runner.add_flow runner ~start:spec.start ?size_bytes
                    ?route:(route_for spec) ~label ~factory ))
          flows
      in
      (* The simulation proper runs supervised: budgets (if any) are
         armed on the runner's sim, and a crash / audit violation /
         stall / budget overrun is reported with the stats collected so
         far instead of a raw backtrace. *)
      let outcome =
        Proteus_harness.Supervisor.run
          ~budget:
            {
              Proteus_harness.Supervisor.max_events = event_budget;
              max_sim_time = None;
              wall_s = wall_budget;
              stall_s = stall_budget;
            }
          (fun () ->
            Proteus_harness.Supervisor.arm_runner runner;
            Net.Runner.run runner ~until:duration)
      in
      Printf.printf
        "link: %.0f Mbps, %.0f ms RTT, %.0f KB buffer, loss %.3f%%, noise %s, \
         topology %s\n\n"
        bw rtt buffer_kb (100.0 *. loss) noise topology;
      Printf.printf "%-16s %10s %10s %9s %9s %10s\n" "flow" "tput Mbps"
        "p95 ms" "loss %" "pkts" "done";
      List.iter
        (fun (spec, flow) ->
          let st = Net.Runner.stats flow in
          let t0 = Float.min (spec.start +. (duration /. 4.0)) duration in
          let tput =
            if duration > t0 then
              Net.Flow_stats.throughput_mbps st ~t0 ~t1:duration
            else 0.0
          in
          Printf.printf "%-16s %10.2f %10.1f %9.3f %9d %10s\n"
            (Net.Runner.label flow) tput
            (match
               Net.Flow_stats.rtt_percentile st ~t0 ~t1:duration ~p:95.0
             with
            | Some r -> Net.Units.sec_to_ms r
            | None -> nan)
            (100.0 *. Net.Flow_stats.loss_fraction st)
            (Net.Flow_stats.packets_sent st)
            (match Net.Runner.completion_time flow with
            | Some t -> Printf.sprintf "t=%.1fs" t
            | None -> if Net.Runner.is_complete flow then "yes" else "-"))
        handles;
      (match series with
      | Some bin when bin > 0.0 ->
          Printf.printf "\nthroughput series (Mbps per %.1f s bin):\n" bin;
          List.iter
            (fun (_, flow) ->
              let s =
                Net.Flow_stats.throughput_series (Net.Runner.stats flow) ~bin
                  ~until:duration
              in
              Printf.printf "%-16s" (Net.Runner.label flow);
              Array.iter (fun (_, m) -> Printf.printf "%6.1f" m) s;
              print_newline ())
            handles
      | _ -> ());
      (match trace_file with
      | Some path ->
          Obs.Export.trace_to_file ~path trace;
          Printf.printf "\n(wrote %s: %d events, %d dropped by wraparound)\n"
            path (Obs.Trace.length trace) (Obs.Trace.dropped trace);
          Obs.Export.warn_dropped ~label:path trace
      | None -> ());
      let registry =
        match (metrics_file, manifest_file) with
        | None, None -> None
        | _ ->
            let reg = Obs.Metrics.create () in
            Net.Runner.snapshot_metrics runner reg;
            Some reg
      in
      (match (metrics_file, registry) with
      | Some path, Some reg ->
          Obs.Export.metrics_to_file ~path reg;
          Printf.printf "(wrote %s)\n" path
      | _ -> ());
      (match manifest_file with
      | Some path ->
          Obs.Manifest.write ~path ~run:"proteus-sim" ~seed
            ~scenario:(String.concat " " specs)
            ~params:
              [
                ("bandwidth_mbps", Printf.sprintf "%g" bw);
                ("rtt_ms", Printf.sprintf "%g" rtt);
                ("buffer_kb", Printf.sprintf "%g" buffer_kb);
                ("loss", Printf.sprintf "%g" loss);
                ("noise", noise);
                ("topology", topology);
                ("duration_s", Printf.sprintf "%g" duration);
                ("outcome", Proteus_harness.Outcome.label outcome);
              ]
            ?registry ();
          Printf.printf "(wrote %s)\n" path
      | None -> ());
      match outcome with
      | Proteus_harness.Outcome.Completed () -> 0
      | o ->
          Printf.eprintf "proteus-sim: run failed: %s (stats above are \
                          partial)\n"
            (Proteus_harness.Outcome.describe o);
          2

open Cmdliner

let bw =
  Arg.(value & opt float 50.0 & info [ "bw" ] ~docv:"MBPS" ~doc:"Bottleneck bandwidth.")

let rtt =
  Arg.(value & opt float 30.0 & info [ "rtt" ] ~docv:"MS" ~doc:"Base round-trip time.")

let buffer_kb =
  Arg.(value & opt float 375.0 & info [ "buffer-kb" ] ~docv:"KB" ~doc:"Bottleneck buffer.")

let loss =
  Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"P" ~doc:"Random loss probability.")

let noise =
  Arg.(
    value & opt string "none"
    & info [ "noise" ] ~docv:"MODEL" ~doc:"Latency noise: none, wifi, gaussian:SIGMA_MS.")

let duration =
  Arg.(value & opt float 60.0 & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds.")

let seed =
  Arg.(
    value & opt (some int) None
    & info [ "seed" ]
        ~doc:"Random seed (default 42; with --scenario, the default is the \
              instance's grid-derived seed).")

let series =
  Arg.(
    value & opt (some float) None
    & info [ "series" ] ~docv:"BIN_S" ~doc:"Also print a binned throughput series.")

let topology =
  Arg.(
    value & opt string "dumbbell"
    & info [ "topology" ] ~docv:"TOPO"
        ~doc:"Network topology: dumbbell (single shared link, the same as \
              chain1) or chainN (N-hop chain; flows default to the end-to-end route, \
              $(b,PROTO%HOP) pins one to a single hop and $(b,PROTO%rev) \
              runs it in the reverse direction).")

let scenario_file =
  Arg.(
    value & opt (some string) None
    & info [ "scenario" ] ~docv:"FILE"
        ~doc:"Run a declarative scenario spec (see scenarios/) instead of \
              flow specs. Link and flow flags are ignored; \
              --trace/--metrics/--manifest/--series, budgets and --seed \
              compose. A gridded scenario runs its first combination.")

let trace_file =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Export the run's trace-bus events (JSONL, or CSV when FILE \
              ends in .csv). Tracing never changes results.")

let metrics_file =
  Arg.(
    value & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Export an end-of-run metrics-registry snapshot (JSON).")

let manifest_file =
  Arg.(
    value & opt (some string) None
    & info [ "manifest" ] ~docv:"FILE"
        ~doc:"Write a run manifest (seed, scenario, link parameters, code \
              version, metrics snapshot).")

let wall_budget =
  Arg.(
    value & opt (some float) None
    & info [ "wall-budget" ] ~docv:"S"
        ~doc:"Abort the run if it takes more than $(docv) wall-clock \
              seconds (reported as timed-out, exit code 2).")

let stall_budget =
  Arg.(
    value & opt (some float) None
    & info [ "stall-budget" ] ~docv:"S"
        ~doc:"Abort the run if simulated time stops advancing for $(docv) \
              wall-clock seconds (livelock detector; exit code 2).")

let event_budget =
  Arg.(
    value & opt (some int) None
    & info [ "event-budget" ] ~docv:"N"
        ~doc:"Abort the run after $(docv) fired simulator events (exit \
              code 2).")

let specs =
  Arg.(value & pos_all string [] & info [] ~docv:"FLOW" ~doc:"Flow specs: PROTO[@START][:SIZE_MB].")

let cmd =
  let doc = "packet-level congestion-control scenarios (PCC Proteus reproduction)" in
  (* Exit codes: 0 clean, 2 supervised-run failure, 1 anything else
     (including cmdline errors, mapped from cmdliner's 124). *)
  Cmd.v
    (Cmd.info "proteus-sim" ~doc)
    Term.(
      const run $ bw $ rtt $ buffer_kb $ loss $ noise $ duration $ seed
      $ series $ topology $ scenario_file $ trace_file $ metrics_file
      $ manifest_file $ wall_budget $ stall_budget $ event_budget $ specs)

let () =
  match Cmd.eval' cmd with
  | 0 -> exit 0
  | 2 -> exit 2
  | _ -> exit 1
