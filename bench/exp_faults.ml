(* Faults smoke, wired into `dune runtest` via @faults-smoke. The
   fault sweep itself is the scenario corpus under scenarios/faults,
   run by the `faults` bench id through Exp_matrix.sweep. *)

module Net = Proteus_net
module Link = Net.Link

let protos =
  List.map Exp_common.proto
    [ "proteus-p"; "proteus-s"; "cubic"; "bbr"; "copa"; "ledbat-100" ]

(* A five-second outage scenario per congestion controller with the
   auditor attached: the link goes dark for two seconds mid-run, flows
   stop at t=4 and the last second drains every in-flight packet so
   conservation can be asserted exactly. Any invariant violation
   raises, failing the alias. *)
let smoke () =
  Exp_common.header "Faults smoke: 2 s outage inside a 5 s run, auditor on";
  let cfg =
    Link.config
      ~schedule:[ (1.5, Link.Down { duration = 2.0; flush = false }) ]
      ~bandwidth_mbps:20.0 ~rtt_ms:30.0 ~buffer_bytes:150_000 ()
  in
  (* The smoke is the trace-capable experiment: with `--trace FILE` each
     protocol's run records the full event stream (one bus per run,
     exported with a per-run label); `--metrics FILE` snapshots every
     run into one registry (flow instruments are keyed by protocol
     label, kernel counters accumulate across runs). Tracing consumes
     no randomness, so the printed numbers are identical either way. *)
  let trace_oc =
    Option.map (fun f -> (f, open_out f)) !Exp_common.trace_file
  in
  let registry =
    Option.map
      (fun f -> (f, Proteus_obs.Metrics.create ()))
      !Exp_common.metrics_file
  in
  let header_written = ref false in
  List.iter
    (fun (p : Exp_common.proto) ->
      let trace =
        match trace_oc with
        | Some _ -> Proteus_obs.Trace.create ()
        | None -> Proteus_obs.Trace.disabled
      in
      let r = Net.Runner.create ~seed:11 ~trace cfg in
      let audit = Net.Runner.attach_audit r in
      let f = Net.Runner.add_flow r ~stop:4.0 ~label:p.name ~factory:(p.make ()) in
      Net.Runner.run r ~until:5.0;
      Net.Audit.assert_quiesced audit;
      (match trace_oc with
      | Some (path, oc) ->
          if Filename.check_suffix path ".csv" then begin
            Proteus_obs.Export.write_trace_csv ~run:p.name
              ~header:(not !header_written) oc trace;
            header_written := true
          end
          else Proteus_obs.Export.write_trace_jsonl ~run:p.name oc trace;
          Proteus_obs.Export.warn_dropped ~label:(path ^ " run " ^ p.name) trace
      | None -> ());
      (match registry with
      | Some (_, reg) -> Net.Runner.snapshot_metrics r reg
      | None -> ());
      let st = Net.Runner.stats f in
      Printf.printf
        "%-12s ok  (%d events audited, %d sent / %d acked / %d lost)\n" p.name
        (Net.Audit.events_checked audit)
        (Net.Flow_stats.packets_sent st)
        (Net.Flow_stats.packets_acked st)
        (Net.Flow_stats.packets_lost st))
    protos;
  (match trace_oc with
  | Some (path, oc) ->
      close_out oc;
      Printf.printf "(wrote %s)\n" path
  | None -> ());
  (match registry with
  | Some (path, reg) ->
      Proteus_obs.Export.metrics_to_file ~path reg;
      Printf.printf "(wrote %s)\n" path
  | None -> ());
  Printf.printf "faults-smoke: all %d protocols clean\n" (List.length protos)
