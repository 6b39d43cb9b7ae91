(* Fault-injection sweep: every congestion controller is pushed through
   dynamic-link scenarios — hard outage (drain and flush variants), a
   bandwidth step, a bursty Gilbert–Elliott loss window, and a combined
   "chaos" mix with ACK reordering and duplication — with the runtime
   invariant auditor attached for the whole run. Emits recovery-time
   and post-fault fairness metrics to `BENCH_faults.json`.

   Determinism: each (scenario x protocol x trial) task derives its
   runner seed with [Rng.split_at] from a fixed root, so a task's seed
   depends only on its key — never on how many sibling tasks ran first
   — and a `--jobs N` sweep is bit-identical to the sequential one. *)

module Net = Proteus_net
module Link = Net.Link
module Rng = Proteus_stats.Rng
module D = Proteus_stats.Descriptive

(* ---------- timing ---------- *)

let duration () = Exp_common.pick ~fast:20.0 ~default:40.0 ~full:60.0
let fault_start () = Exp_common.pick ~fast:8.0 ~default:15.0 ~full:25.0

(* Flows stop two seconds before the horizon so every in-flight packet
   lands (ACK or loss notification) and the auditor can assert full
   conservation at the end of the run. *)
let drain_margin = 2.0

(* ---------- scenarios ---------- *)

let base_bw = 20.0
let series_bin = 0.25

let burst_loss =
  Link.Gilbert_elliott
    { p_good_bad = 0.05; p_bad_good = 0.2; loss_good = 0.0; loss_bad = 0.5 }

type scenario = {
  sid : string;
  cfg : Link.config;
  fault_end : float;  (* when the impairment is fully lifted *)
}

let scenarios () =
  let fs = fault_start () in
  let mk ?reorder_prob ?dup_prob schedule =
    Link.config ?reorder_prob ?dup_prob ~schedule ~bandwidth_mbps:base_bw
      ~rtt_ms:30.0 ~buffer_bytes:150_000 ()
  in
  [
    {
      sid = "outage";
      cfg = mk [ (fs, Link.Down { duration = 2.0; flush = false }) ];
      fault_end = fs +. 2.0;
    };
    {
      sid = "outage-flush";
      cfg = mk [ (fs, Link.Down { duration = 2.0; flush = true }) ];
      fault_end = fs +. 2.0;
    };
    {
      sid = "bw-step";
      cfg =
        mk
          [
            (fs, Link.Set_bandwidth 4.0);
            (fs +. 3.0, Link.Set_bandwidth base_bw);
          ];
      fault_end = fs +. 3.0;
    };
    {
      sid = "bursty-loss";
      cfg =
        mk
          [
            (fs, Link.Set_loss burst_loss);
            (fs +. 3.0, Link.Set_loss (Link.Iid 0.0));
          ];
      fault_end = fs +. 3.0;
    };
    {
      sid = "chaos";
      cfg =
        mk ~reorder_prob:0.05 ~dup_prob:0.02
          [
            (fs, Link.Down { duration = 1.0; flush = false });
            (fs +. 1.0, Link.Set_loss burst_loss);
            (fs +. 3.0, Link.Set_loss (Link.Iid 0.0));
          ];
      fault_end = fs +. 3.0;
    };
  ]

let protos =
  Exp_common.
    [ proteus_p; proteus_s; cubic; bbr; copa; ledbat_100 ]

(* ---------- one run ---------- *)

type run_result = {
  prefault_mbps : float;
  postfault_mbps : float;
  recovery_s : float option;  (* None = never recovered before the end *)
  fairness_jain : float;
  loss_frac : float;
  audited_events : int;
}

let window_mean series ~t0 ~t1 =
  let sum = ref 0.0 and n = ref 0 in
  Array.iter
    (fun (t, v) ->
      if t >= t0 -. 1e-9 && t < t1 -. 1e-9 then begin
        sum := !sum +. v;
        incr n
      end)
    series;
  if !n = 0 then 0.0 else !sum /. float_of_int !n

let jain xs =
  let s = Array.fold_left ( +. ) 0.0 xs in
  let s2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
  if s2 <= 0.0 then 1.0
  else s *. s /. (float_of_int (Array.length xs) *. s2)

(* Two flows of the protocol under test share the bottleneck; recovery
   is the time after the fault lifts until the combined goodput first
   climbs back to 80% of its pre-fault average. *)
let run_one ~seed (p : Exp_common.proto) (sc : scenario) =
  let duration = duration () in
  let fs = fault_start () in
  let stop = duration -. drain_margin in
  let r = Net.Runner.create ~seed sc.cfg in
  Exp_common.arm r;
  let audit = Net.Runner.attach_audit r in
  let f1 = Net.Runner.add_flow r ~stop ~label:"a" ~factory:(p.make ()) in
  let f2 = Net.Runner.add_flow r ~stop ~label:"b" ~factory:(p.make ()) in
  Net.Runner.run r ~until:duration;
  Net.Audit.assert_quiesced audit;
  let series f =
    Net.Flow_stats.throughput_series (Net.Runner.stats f) ~bin:series_bin
      ~until:stop
  in
  let s1 = series f1 and s2 = series f2 in
  let combined =
    Array.mapi (fun i (t, v) -> (t, v +. snd s2.(i))) s1
  in
  let prefault = window_mean combined ~t0:(fs -. 5.0) ~t1:fs in
  let post_t0 = stop -. 5.0 in
  let postfault = window_mean combined ~t0:post_t0 ~t1:stop in
  let threshold = 0.8 *. prefault in
  let recovery = ref None in
  Array.iter
    (fun (t, v) ->
      if !recovery = None && t >= sc.fault_end && v >= threshold then
        recovery := Some (Float.max 0.0 (t -. sc.fault_end)))
    combined;
  let per_flow =
    [|
      window_mean s1 ~t0:post_t0 ~t1:stop; window_mean s2 ~t0:post_t0 ~t1:stop;
    |]
  in
  let st1 = Net.Runner.stats f1 and st2 = Net.Runner.stats f2 in
  let sent =
    Net.Flow_stats.packets_sent st1 + Net.Flow_stats.packets_sent st2
  in
  let lost =
    Net.Flow_stats.packets_lost st1 + Net.Flow_stats.packets_lost st2
  in
  {
    prefault_mbps = prefault;
    postfault_mbps = postfault;
    recovery_s = !recovery;
    fairness_jain = jain per_flow;
    loss_frac =
      (if sent = 0 then 0.0 else float_of_int lost /. float_of_int sent);
    audited_events = Net.Audit.events_checked audit;
  }

(* ---------- journal codec ---------- *)

(* %h floats round-trip byte-exactly through the journal, which is what
   lets a --resume sweep reproduce BENCH_faults.json byte-for-byte. *)
let encode_result r =
  Printf.sprintf "%h %h %s %h %h %d" r.prefault_mbps r.postfault_mbps
    (match r.recovery_s with
    | Some v -> Printf.sprintf "%h" v
    | None -> "-")
    r.fairness_jain r.loss_frac r.audited_events

let decode_result s =
  match String.split_on_char ' ' s with
  | [ pre; post; recov; fair; loss; audited ] ->
      {
        prefault_mbps = float_of_string pre;
        postfault_mbps = float_of_string post;
        recovery_s =
          (if recov = "-" then None else Some (float_of_string recov));
        fairness_jain = float_of_string fair;
        loss_frac = float_of_string loss;
        audited_events = int_of_string audited;
      }
  | _ -> failwith "faults: corrupt journal payload"

(* ---------- sweep ---------- *)

type row = {
  scenario : string;
  cc : string;
  mean : run_result;
  (* 95% confidence half-widths over trials (0 with fewer than two). *)
  pre_ci : float;
  post_ci : float;
  recov_ci : float;
  fair_ci : float;
  recovered : int;  (* trials whose goodput got back over the bar *)
  trials : int;
}

(* Each (scenario x protocol x trial) task is one supervised run: the
   run id names it for the journal and --inject, and a crashed /
   stalled / over-budget trial drops out of its cell's aggregation
   instead of killing the sweep. *)
let sweep () =
  let root = Rng.create ~seed:20_260_806 in
  let trials = Exp_common.trials () in
  let scs = scenarios () in
  let tasks =
    List.concat
      (List.mapi
         (fun si sc ->
           List.concat
             (List.mapi
                (fun pi p ->
                  List.init trials (fun tr ->
                      let key = (((si * 64) + pi) * 64) + tr in
                      let seed =
                        1 + Rng.int (Rng.split_at root ~key) 1_000_000
                      in
                      (si, sc, pi, p, tr, seed)))
                protos))
         scs)
  in
  let cfg =
    Exp_common.sweep_config ~journal:"JOURNAL_faults.jsonl"
      ~params:
        [
          "faults";
          Exp_common.scale_name ();
          string_of_int trials;
          Printf.sprintf "%g" (duration ());
        ]
  in
  let srows =
    Exp_common.sup_map cfg
      ~run_id:(fun (_, sc, _, (p : Exp_common.proto), tr, _) ->
        Printf.sprintf "%s/%s/t%d" sc.sid p.name tr)
      ~seed_of:(fun (_, _, _, _, _, seed) -> seed)
      ~encode:encode_result ~decode:decode_result
      (fun (_, sc, _, p, _, seed) -> run_one ~seed p sc)
      tasks
  in
  let results =
    List.map2
      (fun (si, _, pi, _, _, _) (r : run_result Exp_common.Harness.Sweep.row) ->
        (si, pi, r.Exp_common.Harness.Sweep.r_value))
      tasks srows
  in
  let agg =
    List.concat
      (List.mapi
         (fun si sc ->
           List.mapi
             (fun pi (p : Exp_common.proto) ->
               let mine =
                 List.filter_map
                   (fun (si', pi', r) ->
                     if si' = si && pi' = pi then r else None)
                   results
               in
               let arr f = Array.of_list (List.map f mine) in
               let recoveries = List.filter_map (fun r -> r.recovery_s) mine in
               let pre_m, pre_ci =
                 Exp_common.mean_ci95 (arr (fun r -> r.prefault_mbps))
               in
               let post_m, post_ci =
                 Exp_common.mean_ci95 (arr (fun r -> r.postfault_mbps))
               in
               let fair_m, fair_ci =
                 Exp_common.mean_ci95 (arr (fun r -> r.fairness_jain))
               in
               let recov_m, recov_ci =
                 Exp_common.mean_ci95 (Array.of_list recoveries)
               in
               let loss_arr = arr (fun r -> r.loss_frac) in
               {
                 scenario = sc.sid;
                 cc = p.name;
                 mean =
                   {
                     prefault_mbps = pre_m;
                     postfault_mbps = post_m;
                     recovery_s =
                       (if recoveries = [] then None else Some recov_m);
                     fairness_jain = fair_m;
                     loss_frac =
                       (if mine = [] then 0.0 else D.mean loss_arr);
                     audited_events =
                       List.fold_left
                         (fun acc r -> acc + r.audited_events)
                         0 mine;
                   };
                 pre_ci;
                 post_ci;
                 recov_ci;
                 fair_ci;
                 recovered = List.length recoveries;
                 trials = List.length mine;
               })
             protos)
         scs)
  in
  (agg, srows)

(* ---------- output ---------- *)

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.4f" v else "null"

let emit_json rows failures =
  let oc = open_out "BENCH_faults.json" in
  output_string oc "{\n  \"schema\": \"pcc-proteus-bench-faults/2\",\n";
  Printf.fprintf oc "  \"code_version\": \"%s\",\n"
    (Proteus_obs.Manifest.code_version ());
  Printf.fprintf oc
    "  \"config\": {\"bandwidth_mbps\": %g, \"rtt_ms\": 30, \
     \"buffer_bytes\": 150000, \"duration_s\": %g, \"fault_start_s\": %g, \
     \"recovery_threshold\": 0.8, \"series_bin_s\": %g},\n"
    base_bw (duration ()) (fault_start ()) series_bin;
  Exp_common.emit_failed_runs oc failures;
  output_string oc "  \"results\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"scenario\": \"%s\", \"cc\": \"%s\", \"prefault_mbps\": %s, \
         \"prefault_ci95\": %s, \"postfault_mbps\": %s, \"postfault_ci95\": \
         %s, \"recovery_s\": %s, \"recovery_ci95\": %s, \"recovered\": %d, \
         \"trials\": %d, \"fairness_jain\": %s, \"fairness_ci95\": %s, \
         \"loss_frac\": %s, \"audited_events\": %d}%s\n"
        r.scenario r.cc
        (json_num r.mean.prefault_mbps)
        (json_num r.pre_ci)
        (json_num r.mean.postfault_mbps)
        (json_num r.post_ci)
        (match r.mean.recovery_s with
        | Some v -> json_num v
        | None -> "null")
        (match r.mean.recovery_s with
        | Some _ -> json_num r.recov_ci
        | None -> "null")
        r.recovered r.trials
        (json_num r.mean.fairness_jain)
        (json_num r.fair_ci)
        (json_num r.mean.loss_frac)
        r.mean.audited_events
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc

let run () =
  Exp_common.run_experiment ~seed:20_260_806 ~id:"faults"
    ~title:"Fault injection: outages, bandwidth steps, bursty loss (auditor on)"
  @@ fun () ->
  let rows, srows = sweep () in
  let failures = Exp_common.sweep_failures srows in
  let summary =
    Exp_common.Harness.Sweep.summarize ~retries:!Exp_common.retries srows
  in
  Exp_common.note_failures "faults" summary;
  let current = ref "" in
  List.iter
    (fun r ->
      if r.scenario <> !current then begin
        current := r.scenario;
        Exp_common.subheader r.scenario;
        Printf.printf "%-12s %10s %10s %10s %9s %8s\n" "cc" "pre Mb/s"
          "post Mb/s" "recov s" "jain" "loss"
      end;
      Printf.printf "%-12s %10.2f %10.2f %10s %9.3f %8.4f\n" r.cc
        r.mean.prefault_mbps r.mean.postfault_mbps
        (match r.mean.recovery_s with
        | Some v -> Printf.sprintf "%.2f" v
        | None -> "never")
        r.mean.fairness_jain r.mean.loss_frac)
    rows;
  emit_json rows failures;
  Printf.printf "\n(wrote BENCH_faults.json)\n";
  if summary.failed > 0 then
    Printf.printf "(%d of %d runs failed; see failed_runs)\n" summary.failed
      (summary.completed + summary.failed);
  [
    ("bandwidth_mbps", Printf.sprintf "%g" base_bw);
    ("rtt_ms", "30");
    ("buffer_bytes", "150000");
    ("duration_s", Printf.sprintf "%g" (duration ()));
    ("fault_start_s", Printf.sprintf "%g" (fault_start ()));
    ("scenarios", string_of_int (List.length (scenarios ())));
    ("protocols", string_of_int (List.length protos));
    ("trials", string_of_int (Exp_common.trials ()));
  ]
  @ Exp_common.outcome_params summary

(* ---------- smoke (wired into `dune runtest` via @faults-smoke) ---------- *)

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
      ~bandwidth_mbps:base_bw ~rtt_ms:30.0 ~buffer_bytes:150_000 ()
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
