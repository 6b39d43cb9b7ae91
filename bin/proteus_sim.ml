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
     proteus-sim --scenario scenarios/d-late-join.scn

   Flow spec: PROTO[%HOP|%rev][@START_SECONDS][:SIZE_MB]
     %HOP pins the flow to a single hop of a chain topology; %rev runs
     it end-to-end in the reverse direction (its data shares the other
     flows' ACK path). Default: end-to-end forward. Flow i is labelled
     PROTO.i, any character outside [A-Za-z0-9._-] replaced by '-'.
   Protocols: cubic bbr bbr-s copa ledbat ledbat-25 vivace
              proteus-p proteus-s blaster=RATE_MBPS

   The flags compile to a scenario spec, so both forms share one run
   path: Spec.validate, Build.instantiate, a supervised run, one report
   and one export. *)

module Net = Proteus_net
module Obs = Proteus_obs
module Scn = Proteus_scenario
module Harness = Proteus_harness

let fatal e =
  prerr_endline ("proteus-sim: " ^ e);
  exit 1

let ok = function Ok v -> v | Error e -> fatal e

(* What a front end hands the run path: the spec and its seed, the
   report's first line, where each flow's table window starts (by
   label; it ends at the duration) and the manifest's scenario name and
   parameters. *)
type run = {
  spec : Scn.Spec.t;
  seed : int;
  header : string;
  window : string -> float;
  scenario : string;
  params : (string * string) list;
}

(* ---------- the flag form ---------- *)

(* [s] split at the first [c]: "cubic:50" at ':' is ("cubic", Some "50"). *)
let split s c =
  match String.index_opt s c with
  | None -> (s, None)
  | Some i ->
      (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))

let parse_flow_spec idx s : Scn.Spec.flow =
  let num what conv x =
    match conv x with
    | Some v -> v
    | None -> fatal (Printf.sprintf "bad %s in %S" what s)
  in
  let float what = num what float_of_string_opt in
  let rest, size = split s ':' in
  let rest, start = split rest '@' in
  let cc, route = split rest '%' in
  let label =
    String.map
      (function
        | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-') as c -> c
        | _ -> '-')
      cc
    ^ "." ^ string_of_int idx
  in
  {
    cc;
    label;
    start = Option.fold ~none:0.0 ~some:(float "start time") start;
    stop = None;
    size_mb = Option.map (float "size") size;
    route =
      (match route with
      | None -> Scn.Spec.E2e
      | Some "rev" -> Scn.Spec.Rev
      | Some h ->
          Scn.Spec.Hop (num "route (want %N or %rev)" int_of_string_opt h));
    dp = None;
  }

let parse_noise s =
  match split s ':' with
  | "none", None -> Net.Noise.None_
  | "wifi", None -> Net.Noise.default_wifi
  | "gaussian", Some sigma -> (
      match float_of_string_opt sigma with
      | Some sigma_ms -> Net.Noise.Gaussian { sigma_ms }
      | None -> fatal "bad gaussian sigma")
  | _ -> fatal (Printf.sprintf "unknown noise model %S" s)

(* The number of hops of a chain: "dumbbell" is the one-hop chain, and
   "chainN" builds an N-hop chain whose per-hop propagation delays split
   --rtt evenly, so the end-to-end base RTT is unchanged. *)
let parse_topology = function
  | "dumbbell" -> 1
  | s when String.starts_with ~prefix:"chain" s -> (
      match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
      | Some n when n >= 1 -> n
      | _ -> fatal (Printf.sprintf "bad chain length in %S" s))
  | s ->
      fatal (Printf.sprintf "unknown topology %S (want dumbbell or chainN)" s)

(* The flags as a spec: a chain of identical hops, no declared metrics,
   measured from duration/4; the table reads each flow from duration/4
   after its own start. *)
let of_flags ~bw ~rtt ~buffer_kb ~loss ~noise ~topology ~duration ~seed specs
    =
  let flows = List.mapi parse_flow_spec specs in
  let noise_spec = parse_noise noise in
  let hops = parse_topology topology in
  if flows = [] then fatal "no flows given (try: proteus-sim cubic)";
  let link =
    try
      Net.Link.config ~loss_rate:loss ~noise:noise_spec ~bandwidth_mbps:bw
        ~rtt_ms:(rtt /. float_of_int hops)
        ~buffer_bytes:(Net.Units.kb buffer_kb)
        ()
    with Invalid_argument m -> fatal ("link: " ^ m)
  in
  let spec =
    {
      Scn.Spec.name = "proteus-sim";
      duration;
      measure_from = duration /. 4.0;
      topology = Scn.Spec.Chain (List.init hops (fun _ -> link));
      flows;
      fluids = [];
      metrics = [];
    }
  in
  ok (Scn.Spec.validate spec);
  let start l =
    (List.find (fun (f : Scn.Spec.flow) -> f.label = l) flows).start
  in
  let g = Printf.sprintf "%g" in
  {
    spec;
    seed = Option.value seed ~default:42;
    header =
      Printf.sprintf
        "link: %.0f Mbps, %.0f ms RTT, %.0f KB buffer, loss %.3f%%, noise %s, \
         topology %s"
        bw rtt buffer_kb (100.0 *. loss) noise topology;
    window = (fun l -> Float.min (start l +. spec.measure_from) duration);
    scenario = String.concat " " specs;
    params =
      [
        ("bandwidth_mbps", g bw);
        ("rtt_ms", g rtt);
        ("buffer_kb", g buffer_kb);
        ("loss", g loss);
        ("noise", noise);
        ("topology", topology);
        ("duration_s", g duration);
      ];
  }

(* ---------- the --scenario form ---------- *)

(* A declarative scenario spec (see scenarios/ and DESIGN.md §5f). The
   link / flow / duration flags are ignored — the file is the scenario.
   A gridded scenario runs its first combination. *)
let of_scenario ~path ~seed =
  let insts = ok (Scn.Grid.expand (ok (Scn.Grid.load_file path)) ~trials:1) in
  let inst = List.hd insts in
  if List.length insts > 1 then
    Printf.printf
      "(scenario expands to %d combinations; running the first: %s)\n"
      (List.length insts) inst.Scn.Grid.id;
  let spec = inst.Scn.Grid.spec in
  let seed = Option.value seed ~default:inst.Scn.Grid.seed in
  {
    spec;
    seed;
    header =
      Printf.sprintf "scenario: %s (%s), seed %d, %g s (measuring from %g s)"
        spec.name inst.Scn.Grid.id seed spec.duration spec.measure_from;
    window = (fun _ -> spec.measure_from);
    scenario = inst.Scn.Grid.id;
    params =
      [
        ("scenario_file", path);
        ("combo", inst.Scn.Grid.combo);
        ("duration_s", Printf.sprintf "%g" spec.duration);
        ("measure_from_s", Printf.sprintf "%g" spec.measure_from);
      ];
  }

(* ---------- the run path ---------- *)

(* The longest throughput series printed: more bins than this is a
   mistyped bin width, not a plot. *)
let max_series_bins = 1e6

(* Exit codes: 0 = clean run, 2 = the supervised simulation failed
   (crash / audit violation / budget) but was reported, 1 = usage
   error. *)
let execute ~series ~trace_file ~metrics_file ~manifest_file ~budget r =
  let duration = r.spec.duration in
  (match series with
  | Some bin when not (Float.is_finite bin && bin > 0.0) ->
      fatal (Printf.sprintf "--series: bin must be positive and finite, got %g" bin)
  | Some bin when Float.ceil (duration /. bin) > max_series_bins ->
      fatal
        (Printf.sprintf "--series: %g s bins over %g s are more than %.0f bins"
           bin duration max_series_bins)
  | _ -> ());
  let trace =
    match trace_file with
    | Some _ -> Obs.Trace.create ()
    | None -> Obs.Trace.disabled
  in
  let runner, flows = Scn.Build.instantiate ~trace ~seed:r.seed r.spec in
  (* Budgets (if any) are armed on the runner's sim, and a crash /
     audit violation / stall / budget overrun is reported with the stats
     collected so far instead of a raw backtrace. *)
  let outcome =
    Harness.Supervisor.run ~budget (fun () ->
        Harness.Supervisor.arm_runner runner;
        Net.Runner.run runner ~until:duration)
  in
  Printf.printf "%s\n\n" r.header;
  Printf.printf "%-16s %10s %10s %9s %9s %10s\n" "flow" "tput Mbps" "p95 ms"
    "loss %" "pkts" "done";
  List.iter
    (fun (label, flow) ->
      let st = Net.Runner.stats flow in
      let t0 = r.window label in
      Printf.printf "%-16s %10.2f %10.1f %9.3f %9d %10s\n" label
        (if duration > t0 then
           Net.Flow_stats.throughput_mbps st ~t0 ~t1:duration
         else 0.0)
        (match Net.Flow_stats.rtt_percentile st ~t0 ~t1:duration ~p:95.0 with
        | Some rtt -> Net.Units.sec_to_ms rtt
        | None -> nan)
        (100.0 *. Net.Flow_stats.loss_fraction st)
        (Net.Flow_stats.packets_sent st)
        (match Net.Runner.completion_time flow with
        | Some t -> Printf.sprintf "t=%.1fs" t
        | None -> if Net.Runner.is_complete flow then "yes" else "-"))
    flows;
  let metric_vals =
    Scn.Build.metric_values
      ~baselines:(Scn.Build.baselines ~audit:false ~seed:r.seed r.spec)
      r.spec flows
  in
  if metric_vals <> [] then begin
    Printf.printf "\nmetrics:\n";
    List.iter (fun (k, v) -> Printf.printf "  %-24s %.4f\n" k v) metric_vals
  end;
  (match series with
  | Some bin ->
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
  | None -> ());
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
  | Some path ->
      Obs.Manifest.write ~path ~run:"proteus-sim" ~seed:r.seed
        ~scenario:r.scenario
        ~params:(r.params @ [ ("outcome", Harness.Outcome.label outcome) ])
        ~metrics:metric_vals ?registry ();
      Printf.printf "(wrote %s)\n" path
  | None -> ());
  match outcome with
  | Harness.Outcome.Completed () -> 0
  | o ->
      Printf.eprintf "proteus-sim: run failed: %s (stats above are partial)\n"
        (Harness.Outcome.describe o);
      2

let main bw rtt buffer_kb loss noise duration seed series topology
    scenario_file trace_file metrics_file manifest_file wall_s stall_s
    max_events specs =
  execute ~series ~trace_file ~metrics_file ~manifest_file
    ~budget:(Harness.Supervisor.budget ?max_events ?wall_s ?stall_s ())
    (match scenario_file with
    | Some path ->
        if specs <> [] then fatal "--scenario and flow specs are exclusive";
        of_scenario ~path ~seed
    | None ->
        of_flags ~bw ~rtt ~buffer_kb ~loss ~noise ~topology ~duration ~seed
          specs)

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
  Arg.(
    value & pos_all string []
    & info [] ~docv:"FLOW"
        ~doc:"Flow specs: PROTO[%HOP|%rev][@START][:SIZE_MB]; flow $(i,i) \
              is labelled PROTO.$(i,i).")

let cmd =
  let doc = "packet-level congestion-control scenarios (PCC Proteus reproduction)" in
  (* Exit codes: 0 clean, 2 supervised-run failure, 1 anything else
     (including cmdline errors, mapped from cmdliner's 124). *)
  Cmd.v
    (Cmd.info "proteus-sim" ~doc)
    Term.(
      const main $ bw $ rtt $ buffer_kb $ loss $ noise $ duration $ seed
      $ series $ topology $ scenario_file $ trace_file $ metrics_file
      $ manifest_file $ wall_budget $ stall_budget $ event_budget $ specs)

let () =
  match Cmd.eval' cmd with
  | 0 -> exit 0
  | 2 -> exit 2
  | _ -> exit 1
