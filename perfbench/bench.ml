(* Benchmark executable: links the simulator libraries and times calls into
   their public functions from outside. One process, one domain, the
   default event kernel (the one Runner.create picks with no ~kernel).

   Untimed warm-up pass first, then interleaved timed passes over every
   unit (A B C, A B C, ...) until the time budget is spent; every host
   time is an item's median rep, each rep scaled to a nominal host speed
   by a reference kernel timed in the same pass. With --trace 1 the same
   units run under per-layer variants (timing controller wrapper,
   toggled auditor, enabled trace bus, wheel kernel) whose flow digests
   must equal the plain run's (see check_unaudited for the one
   exception). See perfbench/README.md. *)

module Net = Proteus_net
module Runner = Net.Runner
module Link = Net.Link
module Fs = Net.Flow_stats
module Sender = Net.Sender
module Topology = Net.Topology
module Audit = Net.Audit
module Sim = Proteus_eventsim.Sim
module Trace = Proteus_obs.Trace
module Scn = Proteus_scenario
module Spec = Scn.Spec
module Sweep = Proteus_harness.Sweep
module Supervisor = Proteus_harness.Supervisor
module Reps = Stat.Reps

let ns_s ns = float_of_int ns *. 1e-9

(* ---------- flows, digests and simulated outputs ---------- *)

type role = Primary | Scavenger

let role_of_cc cc =
  match String.lowercase_ascii cc with
  | "proteus-s" | "ledbat" | "ledbat-100" | "ledbat-25" | "ledbat-dp" | "bbr-s"
    ->
      Scavenger
  | _ -> Primary

type out_flow = {
  label : string;
  role : role;
  start : float;
  links : int list;  (* forward links the flow's data crosses *)
  stats : Fs.t;
}

let flow_digest f =
  Printf.sprintf "%s %d %d %d %.17g" f.label (Fs.packets_sent f.stats)
    (Fs.packets_acked f.stats) (Fs.packets_lost f.stats)
    (Fs.bytes_acked f.stats)

let digest flows = String.concat " | " (List.map flow_digest flows)

(* Primary share of goodput from the moment the last scavenger has
   joined; undefined without both roles. *)
let primary_share ~from_ ~until flows =
  let scav = List.filter (fun f -> f.role = Scavenger) flows in
  let prim = List.filter (fun f -> f.role = Primary) flows in
  let t0 = List.fold_left (fun a f -> Float.max a f.start) from_ scav in
  if scav = [] || prim = [] || t0 >= until then None
  else
    let sum fs =
      List.fold_left
        (fun a f -> a +. Fs.throughput_mbps f.stats ~t0 ~t1:until)
        0.0 fs
    in
    let p = sum prim and s = sum scav in
    if p +. s > 0.0 then Some (p /. (p +. s)) else None

(* Whole-run goodput through the busiest forward link over that link's
   top scheduled capacity. Every acknowledged byte crossed each link of
   its route by the end of the run, so this can never exceed 1; a
   windowed goodput could, by a packet or an ACK-delay shift. *)
let utilization ~until ~capacity flows =
  let load = Hashtbl.create 8 in
  List.iter
    (fun f ->
      let mbps = Fs.bytes_acked f.stats *. 8e-6 /. until in
      List.iter
        (fun l ->
          Hashtbl.replace load l
            (mbps +. Option.value ~default:0.0 (Hashtbl.find_opt load l)))
        f.links)
    flows;
  Hashtbl.fold (fun l g acc -> Float.max acc (g /. capacity l)) load 0.0

let top_capacity (c : Link.config) =
  List.fold_left
    (fun acc (_, imp) ->
      match imp with Link.Set_bandwidth b -> Float.max acc b | _ -> acc)
    c.bandwidth_mbps c.schedule

type outputs = { dig : string; share : float option; util : float }

(* ---------- correctness gate ---------- *)

type ustate = {
  id : string;
  sim_s : float;
  mutable ref_digest : string option;
  mutable failure : string option;
  mutable u_share : float option;
  mutable u_util : float;
}

let ustate id sim_s =
  { id; sim_s; ref_digest = None; failure = None; u_share = None; u_util = nan }

let fail st why = if st.failure = None then st.failure <- Some why

(* A unit whose run raises fails the gate instead of ending the run. *)
let guard st what f =
  try f () with e -> fail st (what ^ " raised " ^ Printexc.to_string e)

let check_values st o =
  (match o.share with
  | Some s when not (Float.is_finite s) -> fail st "primary_share not finite"
  | _ -> ());
  if not (Float.is_finite o.util) then fail st "utilization not finite"
  else if o.util > 1.0 then
    fail st (Printf.sprintf "utilization %.17g > 1" o.util)

let check ?(what = "rep") st o =
  (match st.ref_digest with
  | None -> st.ref_digest <- Some o.dig
  | Some d when d <> o.dig ->
      fail st (what ^ " run's flow digest differs from the plain run's")
  | Some _ -> ());
  check_values st o;
  st.u_share <- o.share;
  st.u_util <- o.util

(* ---------- timing controller wrapper (traced runs only) ---------- *)

type acc = { mutable ns : int; mutable calls : int }
type timed = { inner : Sender.packed; acc : acc }

module Timed : Sender.S_meta with type t = timed = struct
  type t = timed

  let[@inline] tick a t0 =
    a.ns <- a.ns + (Stat.now_ns () - t0);
    a.calls <- a.calls + 1

  let name t = Sender.name t.inner

  let next_send t ~now =
    let t0 = Stat.now_ns () in
    let v = Sender.next_send t.inner ~now in
    tick t.acc t0;
    v

  let on_sent t ~now ~seq ~size =
    let t0 = Stat.now_ns () in
    Sender.on_sent t.inner ~now ~seq ~size;
    tick t.acc t0

  let on_ack t ~now ~seq ~send_time ~size ~rtt =
    let t0 = Stat.now_ns () in
    Sender.on_ack t.inner ~now ~seq ~send_time ~size ~rtt;
    tick t.acc t0

  let on_loss t ~now ~seq ~send_time ~size =
    let t0 = Stat.now_ns () in
    Sender.on_loss t.inner ~now ~seq ~send_time ~size;
    tick t.acc t0

  let next_send_m t ~meta =
    let t0 = Stat.now_ns () in
    Sender.next_send_m t.inner ~meta;
    tick t.acc t0

  let on_sent_m t ~meta ~seq ~size =
    let t0 = Stat.now_ns () in
    Sender.on_sent_m t.inner ~meta ~seq ~size;
    tick t.acc t0

  let on_ack_m t ~meta ~seq ~size =
    let t0 = Stat.now_ns () in
    Sender.on_ack_m t.inner ~meta ~seq ~size;
    tick t.acc t0

  let on_loss_m t ~meta ~seq ~size =
    let t0 = Stat.now_ns () in
    Sender.on_loss_m t.inner ~meta ~seq ~size;
    tick t.acc t0
end

(* Per protocol family (the sender's reported name), over every traced
   rep of the workload. *)
let families : (string, acc) Hashtbl.t = Hashtbl.create 16

let family name =
  match Hashtbl.find_opt families name with
  | Some a -> a
  | None ->
      let a = { ns = 0; calls = 0 } in
      Hashtbl.add families name a;
      a

let wrap (factory : Sender.factory) : Sender.factory =
 fun env ->
  let inner = factory env in
  Sender.pack_meta (module Timed) { inner; acc = family (Sender.name inner) }

let controller_total () =
  Hashtbl.fold (fun _ a (ns, c) -> (ns + a.ns, c + a.calls)) families (0, 0)

(* ---------- per-layer accumulators (traced runs) ---------- *)

type layers = {
  base : Reps.t;  (* Runner.run, workload's own configuration *)
  ctl : Reps.t;  (* ... with the timing controller wrapper *)
  audit_on : Reps.t;  (* ... with an auditor attached *)
  audit_off : Reps.t;  (* ... without one *)
  bus : Reps.t;  (* ... with an enabled trace bus *)
  wheel : Reps.t;  (* ... under the wheel kernel *)
  load : Reps.t;  (* scenario load + expand, per scenario source *)
  mutable inst_us : float list;  (* Build.instantiate, every call *)
  mutable sup_us : float list;  (* Supervisor.run minus inner run *)
  mutable query_us : float list;  (* Flow_stats queries per unit rep *)
  mutable first_pass : bool;
  mutable fired : int;
  mutable scheduled : int;
  mutable max_queued : int;
  mutable minor : float;
  mutable promoted : float;
  mutable majors : int;
  mutable sent : int;
  mutable lost : int;
  mutable hop_drops : int;
  mutable checked : int;
  mutable dropped : int;
  unaudited : string option array;  (* unaudited digest, fluid units *)
  perturbed : bool array;  (* the auditor changes this unit's run *)
}

let layers ~units ~sources =
  let r () = Reps.create units in
  {
    base = r (); ctl = r (); audit_on = r (); audit_off = r (); bus = r ();
    wheel = r (); load = Reps.create sources; inst_us = []; sup_us = [];
    query_us = []; first_pass = false; fired = 0; scheduled = 0;
    max_queued = 0; minor = 0.0; promoted = 0.0; majors = 0; sent = 0;
    lost = 0; hop_drops = 0; checked = 0; dropped = 0;
    unaudited = Array.make units None; perturbed = Array.make units false;
  }

(* Time Runner.run; on the first traced pass also record the kernel,
   GC and packet counters of the base variant. *)
let timed_run ?(count : layers option) r ~until =
  let g0 = Gc.quick_stat () in
  let t0 = Stat.now_ns () in
  Runner.run r ~until;
  let dt = Stat.now_ns () - t0 in
  (match count with
  | Some l when l.first_pass ->
      let g1 = Gc.quick_stat () in
      let sim = Runner.sim r in
      l.fired <- l.fired + Sim.events_fired sim;
      l.scheduled <- l.scheduled + Sim.events_scheduled sim;
      l.max_queued <- max l.max_queued (Sim.max_queued sim);
      l.minor <- l.minor +. (g1.minor_words -. g0.minor_words);
      l.promoted <- l.promoted +. (g1.promoted_words -. g0.promoted_words);
      l.majors <- l.majors + (g1.major_collections - g0.major_collections)
  | _ -> ());
  dt

let count_packets l flows =
  if l.first_pass then
    List.iter
      (fun f ->
        l.sent <- l.sent + Fs.packets_sent f.stats;
        l.lost <- l.lost + Fs.packets_lost f.stats;
        Array.iteri
          (fun hop n -> if hop > 0 then l.hop_drops <- l.hop_drops + n)
          (Fs.losses_by_hop f.stats))
      flows

let time_queries l ~from_ ~until ?extra flows =
  let t0 = Stat.now_ns () in
  List.iter
    (fun f ->
      ignore (Fs.throughput_mbps f.stats ~t0:from_ ~t1:until : float);
      ignore (Fs.rtt_percentile f.stats ~t0:from_ ~t1:until ~p:95.0 : float option))
    flows;
  Option.iter (fun g -> ignore (g ())) extra;
  l.query_us <- (float_of_int (Stat.now_ns () - t0) *. 1e-3) :: l.query_us

(* ---------- classic units: paper_pair, many_flow ---------- *)

type cflow = { cc : string; c_label : string; c_start : float }

type classic = {
  c_id : string;
  seed : int;
  cfg : Link.config;
  cflows : cflow list;
  duration : float;
  from_ : float;  (* measurement window start *)
  slice : float;  (* sim-time slice for run_ms percentiles *)
}

let factory_of = function
  | "proteus-p" -> Proteus.Presets.proteus_p ()
  | "proteus-s" -> Proteus.Presets.proteus_s ()
  | cc -> (
      match Scn.Protocols.factory cc with
      | Ok f -> f
      | Error e -> invalid_arg ("perfbench: " ^ e))

let paper_pair ws =
  Array.init 16 (fun i ->
      let c_id = Printf.sprintf "paper_pair/%d" i in
      {
        c_id;
        seed = Stat.unit_seed ws c_id;
        cfg =
          Link.config ~bandwidth_mbps:50.0 ~rtt_ms:30.0 ~buffer_bytes:375_000 ();
        cflows =
          [
            { cc = "proteus-p"; c_label = "p"; c_start = 0.0 };
            { cc = "proteus-s"; c_label = "s"; c_start = 10.0 };
          ];
        duration = 30.0;
        from_ = 10.0;
        slice = 0.5;
      })

(* The 64-flow shape of BENCH_micro.json: CUBIC (primary) and Proteus-S
   alternating on a 500 Mbps link, all from t = 0. Eight 5-sim-s runs in
   0.2-s slices give 200 percentile items. *)
let many_flow ws =
  Array.init 8 (fun i ->
      let c_id = Printf.sprintf "many_flow/%d" i in
      {
        c_id;
        seed = Stat.unit_seed ws c_id;
        cfg =
          Link.config ~bandwidth_mbps:500.0 ~rtt_ms:30.0 ~buffer_bytes:1_875_000
            ();
        cflows =
          List.init 64 (fun j ->
              {
                cc = (if j land 1 = 0 then "cubic" else "proteus-s");
                c_label = Printf.sprintf "f%d" j;
                c_start = 0.0;
              });
        duration = 5.0;
        from_ = 1.0;
        slice = 0.2;
      })

let slices u = int_of_float (Float.round (u.duration /. u.slice))

let classic_create ?kernel ?trace ?(wrap = Fun.id) u =
  let r = Runner.create ~seed:u.seed ?kernel ?trace u.cfg in
  let flows =
    List.map
      (fun f ->
        ( f,
          Runner.add_flow r ~start:f.c_start ~label:f.c_label
            ~factory:(wrap (factory_of f.cc)) ))
      u.cflows
  in
  (r, flows)

let classic_flows flows =
  List.map
    (fun (f, h) ->
      {
        label = f.c_label;
        role = role_of_cc f.cc;
        start = f.c_start;
        links = [ 0 ];
        stats = Runner.stats h;
      })
    flows

let classic_outputs u flows =
  let fl = classic_flows flows in
  let cap = top_capacity u.cfg in
  {
    dig = digest fl;
    share = primary_share ~from_:u.from_ ~until:u.duration fl;
    util =
      utilization ~until:u.duration ~capacity:(fun _ -> cap) fl;
  }

(* One plain rep: setup (Runner.create + add_flow), then Runner.run in
   sim-time slices. Returns (setup s, run s, outputs). *)
let classic_rep ~on_slice u =
  let t0 = Stat.now_ns () in
  let r, flows = classic_create u in
  let t1 = Stat.now_ns () in
  let t = ref t1 in
  for i = 1 to slices u do
    Runner.run r ~until:(Float.min u.duration (float_of_int i *. u.slice));
    let t' = Stat.now_ns () in
    on_slice (i - 1) (ns_s (t' - !t));
    t := t'
  done;
  (ns_s (t1 - t0), ns_s (!t - t1), classic_outputs u flows)

(* ---------- corpus units ---------- *)

type inst = { idx : int; inst : Scn.Grid.instance; i_seed : int }

let corpus_files () =
  let d = "scenarios" in
  Sys.readdir d |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".scn")
  |> List.sort String.compare
  |> List.map (Filename.concat d)

let load_file path =
  match Scn.Grid.load_file path with
  | Error e -> failwith e
  | Ok tmpl -> (
      match Scn.Grid.expand tmpl ~trials:1 with
      | Error e -> failwith e
      | Ok is -> is)

(* Corpus load, expand and validate, timed per file. *)
let load_corpus ws ~on_file files =
  List.concat
    (List.mapi
       (fun fi path ->
         let t0 = Stat.now_ns () in
         let is = load_file path in
         on_file fi (Stat.seconds_since t0);
         is)
       files)
  |> List.mapi (fun idx (inst : Scn.Grid.instance) ->
         { idx; inst; i_seed = Stat.mix_seed ws inst.seed })

let chain_hops (t : Spec.t) =
  match t.topology with
  | Spec.Dumbbell _ -> 1
  | Spec.Chain ls -> List.length ls
  | Spec.Parking_lot { hops; _ } -> hops

let spec_links (t : Spec.t) (r : Spec.route) =
  let n = chain_hops t in
  match (t.topology, r) with
  | Spec.Dumbbell _, _ -> [ 0 ]
  | _, Spec.E2e -> List.init n Fun.id
  | _, Spec.Hop h -> [ h ]
  | _, Spec.Rev -> List.init n (fun i -> n + i)

let spec_flows (t : Spec.t) flows =
  let declared =
    List.map (fun (f : Spec.flow) -> (f.label, (f.cc, f.start, f.route))) t.flows
  in
  List.map
    (fun (label, h) ->
      let cc, start, links =
        match List.assoc_opt label declared with
        | Some (cc, start, route) -> (cc, start, spec_links t route)
        | None -> (
            (* implicit parking-lot cross flow "crossN" on hop N *)
            match t.topology with
            | Spec.Parking_lot { cross; _ } ->
                (cross, 0.0, [ int_of_string (String.sub label 5 (String.length label - 5)) ])
            | _ -> failwith ("perfbench: unknown flow " ^ label))
      in
      { label; role = role_of_cc cc; start; links; stats = Runner.stats h })
    flows

let spec_outputs (t : Spec.t) flows =
  let fl = spec_flows t flows in
  let topo = Scn.Build.topology t in
  let capacity l = top_capacity (Topology.link_config topo l) in
  {
    dig = digest fl;
    share = primary_share ~from_:t.measure_from ~until:t.duration fl;
    util = utilization ~until:t.duration ~capacity fl;
  }

type live = {
  runner : Runner.t;
  flows : (string * Runner.flow) list;
  audit : Audit.t;
}

(* The steps of Build.run_metrics, in its order, keeping the runner and
   flows so the gate can read them. *)
let corpus_task k =
  let spec = k.inst.spec in
  let r, flows = Scn.Build.instantiate ~seed:k.i_seed spec in
  Supervisor.arm_runner r;
  let audit = Runner.attach_audit r in
  Runner.run r ~until:spec.duration;
  ignore (Scn.Build.metric_values spec flows : (string * float) list);
  { runner = r; flows; audit }

(* After the run: stop every flow, let in-flight packets land, and
   require the auditor to see every packet delivered or dropped. *)
let drain_s = 30.0

let quiesce (spec : Spec.t) lv =
  List.iter (fun (_, f) -> Runner.pause lv.runner f) lv.flows;
  Runner.run lv.runner ~until:(spec.duration +. drain_s);
  Audit.assert_quiesced lv.audit

(* Sequential Sweep.map over instances; [on_row] sees each instance's
   host time (Supervisor and sweep bookkeeping included) and its row.
   Rows are returned without their runner so passes do not retain
   simulations. *)
let sweep ks ~task ~on_row =
  let pool_map g ks =
    List.map
      (fun k ->
        let t0 = Stat.now_ns () in
        let row = g k in
        let dt = Stat.seconds_since t0 in
        on_row k dt row;
        { row with Sweep.r_value = None })
      ks
  in
  ignore
    (Sweep.map Sweep.default ~pool_map
       ~run_id:(fun k -> k.inst.id)
       ~seed_of:(fun k -> k.i_seed)
       ~encode:(fun _ -> "")
       ~decode:(fun _ -> invalid_arg "perfbench: no journal")
       task ks
      : _ Sweep.row list)

let row_value st (row : _ Sweep.row) =
  match (row.r_value, row.r_failure) with
  | Some v, _ -> Some v
  | None, Some f ->
      fail st (Printf.sprintf "ended %s: %s" f.f_outcome f.f_detail);
      None
  | None, None ->
      fail st "no outcome";
      None

(* Build.instantiate with every flow's factory wrapped: the traced
   controller variant (its digest must match Build.instantiate's). *)
let instantiate_wrapped ~seed (t : Spec.t) =
  let topo = Scn.Build.topology t in
  let r = Runner.create_topo ~seed topo in
  let route (f : Spec.flow) =
    match (t.topology, f.route) with
    | Spec.Dumbbell _, _ -> None
    | _, Spec.E2e -> Some (Topology.chain_route topo)
    | _, Spec.Hop h -> Some (Topology.hop_route topo ~hop:h)
    | _, Spec.Rev ->
        let n = Topology.chain_hops topo in
        Some
          (Topology.route topo
             ~fwd:(List.init n (fun i -> (2 * n) - 1 - i))
             ~rev:(List.init n Fun.id))
  in
  let get = function Ok f -> wrap f | Error e -> failwith e in
  let declared =
    List.map
      (fun (f : Spec.flow) ->
        let factory =
          match f.dp with
          | None -> Scn.Protocols.factory f.cc
          | Some d ->
              Scn.Protocols.datapath_factory ?interval:d.dp_interval
                ~consts:d.dp_consts f.cc
        in
        let size_bytes = Option.map (fun mb -> int_of_float (mb *. 1e6)) f.size_mb in
        ( f.label,
          Runner.add_flow r ~start:f.start ?stop:f.stop ?size_bytes
            ?route:(route f) ~label:f.label ~factory:(get factory) ))
      t.flows
  in
  let crosses =
    match t.topology with
    | Spec.Parking_lot { hops; cross; _ } ->
        List.init hops (fun hop ->
            let label = Printf.sprintf "cross%d" hop in
            ( label,
              Runner.add_flow r ~route:(Topology.hop_route topo ~hop) ~label
                ~factory:(get (Scn.Protocols.factory cross)) ))
    | _ -> []
  in
  (r, declared @ crosses)

(* ---------- workload results ---------- *)

type result = {
  units : ustate array;
  setup : Reps.t;  (* corpus: per file; otherwise per unit *)
  run : Reps.t;  (* per unit *)
  items : Reps.t;  (* percentile items: slices or instances *)
  item_sim : float array;  (* sim-seconds each item covers *)
  item_kind : string;
  passes : int;
  heap_mb : float;
  factor : float;  (* median host factor over the timed passes *)
}

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

let seconds = ref 20.0
let min_passes = 3
let max_passes = 1000

(* Host times are scaled to the speed at which the reference kernels'
   geometric-mean time is this long (Stat.Pass): about a quiet 2-core
   x86 VM's, so the host factor reads near 1 there. *)
let nominal_ref_s = 5e-4

(* Untimed warm-up pass, then timed passes until the budget is spent.
   [pass p] stages its times in [p]; a timed pass commits them scaled
   by its host factor. The heap peak is read after the first timed
   pass: the same work on every run, whereas the pass count follows
   host speed. *)
let timed_passes pass =
  pass (Stat.Pass.create ());
  let heap = ref nan and factors = ref [] in
  let n =
    Stat.passes
      ~continue:(Stat.budget ~min:min_passes ~max:max_passes ~seconds:!seconds)
      (fun i ->
        let p = Stat.Pass.create () in
        pass p;
        factors := Stat.Pass.commit p ~nominal:nominal_ref_s :: !factors;
        if i = 0 then heap := peak_heap_mb ())
  in
  (n, !heap, Stat.median (Array.of_list !factors))

let run_classic units =
  let n = Array.length units in
  let ns = slices units.(0) in
  let st = Array.map (fun u -> ustate u.c_id u.duration) units in
  let setup = Reps.create n and run = Reps.create n in
  let items = Reps.create (n * ns) in
  (* a unit runs 0.1-0.2 s: four reference runs (~2 ms each) add 4-8% *)
  let pass p =
    Array.iteri
      (fun i u ->
        let on_slice j dt = Stat.Pass.add p items ((i * ns) + j) dt in
        guard st.(i) "run" (fun () ->
            let s, r, o = classic_rep ~on_slice u in
            Stat.Pass.add p setup i s;
            Stat.Pass.add p run i r;
            check st.(i) o);
        for _ = 1 to 4 do
          Stat.Pass.reference p
        done)
      units
  in
  let passes, heap_mb, factor = timed_passes pass in
  let item_sim =
    Array.init (n * ns) (fun k ->
        let u = units.(k / ns) and j = float_of_int (k mod ns) in
        Float.min u.duration ((j +. 1.0) *. u.slice) -. (j *. u.slice))
  in
  { units = st; setup; run; items; item_sim; item_kind = "slices"; passes;
    heap_mb; factor }

let run_corpus ws =
  let files = corpus_files () in
  let nf = List.length files in
  let setup = Reps.create nf in
  let probe = load_corpus ws ~on_file:(fun _ _ -> ()) files in
  let n = List.length probe in
  let st =
    Array.of_list
      (List.map (fun k -> ustate k.inst.id k.inst.spec.Spec.duration) probe)
  in
  let run = Reps.create n in
  (* an instance runs ~10 ms: one reference run (~2 ms) after each adds
     ~20% *)
  let warm_up = ref true in
  let pass p =
    let ks = load_corpus ws files ~on_file:(Stat.Pass.add p setup) in
    sweep ks ~task:corpus_task ~on_row:(fun k dt row ->
        let s = st.(k.idx) in
        (match row_value s row with
        | None -> ()
        | Some lv ->
            Stat.Pass.add p run k.idx dt;
            check s (spec_outputs k.inst.spec lv.flows);
            if !warm_up then
              try quiesce k.inst.spec lv
              with Audit.Violation m -> fail s ("audit not quiesced: " ^ m));
        Stat.Pass.reference p);
    warm_up := false
  in
  let passes, heap_mb, factor = timed_passes pass in
  { units = st; setup; run; items = run;
    item_sim = Array.map (fun s -> s.sim_s) st; item_kind = "instances";
    passes; heap_mb; factor }

(* ---------- traced runs ---------- *)

(* Untimed warm-up, then timed passes; kernel, GC and packet counters
   are read on the first timed pass only (they repeat exactly). A traced
   pass runs every unit five times over, so after the first two passes
   the next starts only if, at the mean pass time so far, it ends within
   the budget. *)
let traced_passes = ref 0

let traced l pass =
  pass ~timed:false;
  Hashtbl.reset families;
  let t0 = Stat.now_ns () in
  let fits done_ =
    done_ < 2
    || done_ < max_passes
       && Stat.seconds_since t0 *. float_of_int (done_ + 1) /. float_of_int done_
          <= !seconds
  in
  traced_passes :=
    Stat.passes ~continue:fits
      (fun p ->
        l.first_pass <- p = 0;
        pass ~timed:true);
  l.first_pass <- false

let trace_classic units =
  let n = Array.length units in
  let st = Array.map (fun u -> ustate u.c_id u.duration) units in
  let l = layers ~units:n ~sources:0 in
  let pass ~timed =
    Array.iteri
      (fun i u ->
        guard st.(i) "traced run" @@ fun () ->
        let add reps dt = if timed then Reps.add reps i (ns_s dt) in
        let until = u.duration in
        (* base: the workload's own configuration *)
        let r, flows = classic_create u in
        let dt = timed_run ~count:l r ~until in
        add l.base dt;
        add l.audit_off dt;
        let fl = classic_flows flows in
        if timed then begin
          count_packets l fl;
          time_queries l ~from_:u.from_ ~until fl
        end;
        check st.(i) (classic_outputs u flows);
        let variant what ?kernel ?trace ?(wrapped = false) ?(audit = false) reps =
          let r, flows =
            classic_create ?kernel ?trace
              ?wrap:(if wrapped then Some wrap else None)
              u
          in
          let a = if audit then Some (Runner.attach_audit r) else None in
          add reps (timed_run r ~until);
          check ~what st.(i) (classic_outputs u flows);
          if timed && l.first_pass then begin
            Option.iter (fun a -> l.checked <- l.checked + Audit.events_checked a) a;
            Option.iter (fun t -> l.dropped <- l.dropped + Trace.dropped t) trace
          end
        in
        variant "controller-wrapped" ~wrapped:true l.ctl;
        variant "audited" ~audit:true l.audit_on;
        variant "trace-bus" ~trace:(Trace.create ()) l.bus;
        variant "wheel-kernel" ~kernel:Sim.Wheel_kernel l.wheel)
      units
  in
  traced l pass;
  (st, l, Array.fold_left (fun a u -> a +. u.duration) 0.0 units)

(* The auditor reads the first link's backlog after every send, ACK and
   loss, and on a link that carries fluid background each read
   integrates the fluid tier up to that instant. The extra integration
   steps round differently, so without the auditor such a unit may run
   a different simulation. On a unit with fluid, the unaudited digest
   must repeat across reps; when it differs from the audited one the
   unit counts in audit.perturbed_units and is left out of audit.share.
   On any other unit a differing digest fails the gate. *)
let check_unaudited l st i r o =
  let fluid =
    List.exists
      (fun j -> Link.fluid (Runner.link_at r j) <> None)
      (List.init (Runner.num_links r) Fun.id)
  in
  if not fluid then check ~what:"unaudited" st o
  else begin
    (match l.unaudited.(i) with
    | None -> l.unaudited.(i) <- Some o.dig
    | Some d when d <> o.dig ->
        fail st "unaudited run's flow digest differs between reps"
    | Some _ -> ());
    if st.ref_digest <> Some o.dig then l.perturbed.(i) <- true;
    check_values st o
  end

let trace_corpus ws =
  let files = corpus_files () in
  let probe = load_corpus ws ~on_file:(fun _ _ -> ()) files in
  let n = List.length probe in
  let st =
    Array.of_list
      (List.map (fun k -> ustate k.inst.id k.inst.spec.Spec.duration) probe)
  in
  let l = layers ~units:n ~sources:(List.length files) in
  let pass ~timed =
    let ks =
      load_corpus ws files ~on_file:(fun fi dt ->
          if timed then Reps.add l.load fi dt)
    in
    let add reps i dt = if timed then Reps.add reps i (ns_s dt) in
    let inner = ref 0 and inst = ref 0 and run = ref 0 in
    let task k =
      let t0 = Stat.now_ns () in
      let spec = k.inst.spec in
      let r, flows = Scn.Build.instantiate ~seed:k.i_seed spec in
      inst := Stat.now_ns () - t0;
      Supervisor.arm_runner r;
      let audit = Runner.attach_audit r in
      run := timed_run ~count:l r ~until:spec.duration;
      ignore (Scn.Build.metric_values spec flows : (string * float) list);
      inner := Stat.now_ns () - t0;
      { runner = r; flows; audit }
    in
    sweep ks ~task ~on_row:(fun k dt row ->
        let s = st.(k.idx) in
        match row_value s row with
        | None -> ()
        | Some lv ->
            let spec = k.inst.spec in
            let until = spec.duration in
            let fl = spec_flows spec lv.flows in
            if timed then begin
              l.sup_us <- ((dt -. ns_s !inner) *. 1e6) :: l.sup_us;
              l.inst_us <- (float_of_int !inst *. 1e-3) :: l.inst_us;
              add l.base k.idx !run;
              add l.audit_on k.idx !run;
              if l.first_pass then
                l.checked <- l.checked + Audit.events_checked lv.audit;
              count_packets l fl;
              time_queries l ~from_:spec.measure_from ~until
                ~extra:(fun () -> Scn.Build.metric_values spec lv.flows)
                fl
            end;
            check s (spec_outputs spec lv.flows);
            let variant what ?kernel ?trace ?(wrapped = false) ?(audit = true) reps =
              guard s what @@ fun () ->
              let r, flows =
                if wrapped then instantiate_wrapped ~seed:k.i_seed spec
                else Scn.Build.instantiate ?kernel ?trace ~seed:k.i_seed spec
              in
              if audit then ignore (Runner.attach_audit r : Audit.t);
              add reps k.idx (timed_run r ~until);
              let o = spec_outputs spec flows in
              if audit then check ~what s o else check_unaudited l s k.idx r o;
              if timed && l.first_pass then
                Option.iter (fun t -> l.dropped <- l.dropped + Trace.dropped t) trace
            in
            variant "controller-wrapped" ~wrapped:true l.ctl;
            variant "unaudited" ~audit:false l.audit_off;
            variant "trace-bus" ~trace:(Trace.create ()) l.bus;
            variant "wheel-kernel" ~kernel:Sim.Wheel_kernel l.wheel)
  in
  traced l pass;
  (st, l, Array.fold_left (fun a s -> a +. s.sim_s) 0.0 st)

(* ---------- reporting ---------- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let m name value unit_ note = { name; value; unit_; note }

let pct ~p xs ~what =
  match Stat.percentile ~p xs with
  | Some (v, beyond) -> (v, beyond)
  | None ->
      failwith
        (Printf.sprintf "p%g of %d %s has fewer than %d samples beyond it" p
           (Array.length xs) what Stat.min_beyond)

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let failed units = Array.fold_left (fun a s -> a + Bool.to_int (s.failure <> None)) 0 units

let end_to_end res =
  let n = Array.length res.units in
  (* only items with a rep: a unit that never completed adds neither
     sim-seconds nor host time *)
  let sim_s =
    List.fold_left (fun a i -> a +. res.item_sim.(i)) 0.0 (Reps.timed res.items)
  in
  let items = Reps.median_all res.items in
  let ni = Array.length items in
  let p50, b50 = pct ~p:50.0 items ~what:res.item_kind in
  let p95, b95 = pct ~p:95.0 items ~what:res.item_kind in
  let shares =
    Array.to_list res.units |> List.filter_map (fun s -> s.u_share)
  in
  let utils = Array.to_list res.units |> List.map (fun s -> s.u_util) in
  let ok = n - failed res.units in
  [
    m "sim_s_per_wall_s" (sim_s /. Reps.sum_median res.items) "sim_s/s"
      (Printf.sprintf "%d units, %g sim-s, %d %s" n sim_s ni res.item_kind);
    m "run_ms_p50" (1000.0 *. p50) "ms"
      (Printf.sprintf "%d %s, %d beyond" ni res.item_kind b50);
    m "run_ms_p95" (1000.0 *. p95) "ms"
      (Printf.sprintf "%d %s, %d beyond" ni res.item_kind b95);
    m "setup_s" (Reps.sum_median res.setup) "s"
      (Printf.sprintf "sum of %d setups" (Reps.units res.setup));
    m "peak_heap_mb" res.heap_mb "MB" "warm-up + first timed pass";
    m "ok_share" (float_of_int ok /. float_of_int n) "ratio"
      (Printf.sprintf "%d/%d units" ok n);
    m "primary_share" (mean shares) "ratio"
      (Printf.sprintf "mean of %d units" (List.length shares));
    m "utilization" (mean utils) "ratio"
      (Printf.sprintf "mean of %d units" (List.length utils));
  ]

(* Which end-to-end metric each layer metric should move. *)
let moves name =
  let pre p = String.length name >= String.length p && String.sub name 0 (String.length p) = p in
  if pre "eventsim." then "sim_s_per_wall_s on many_flow, then paper_pair"
  else if pre "controller." then "sim_s_per_wall_s on paper_pair"
  else if name = "net.hop_drops" then "run_ms_p95 on corpus_sweep"
  else if pre "net." then "sim_s_per_wall_s on paper_pair and many_flow"
  else if pre "gc." then "sim_s_per_wall_s and peak_heap_mb on many_flow"
  else if pre "flow_stats." then
    "run_ms_p50 on corpus_sweep; sim_s_per_wall_s on many_flow"
  else if name = "audit.perturbed_units" then
    "primary_share and utilization on corpus_sweep"
  else if pre "audit." then "run_ms_p50 on corpus_sweep"
  else if pre "obs." then "nothing untraced, on any workload"
  else if pre "scenario." then "setup_s and run_ms_p50 on corpus_sweep"
  else if pre "harness." then "run_ms_p50 on corpus_sweep"
  else "nothing (describes this run)"

(* Latency of one clock read, seen between two back-to-back reads: the
   part of each wrapped controller call's measured time that is the
   clock's own. *)
let clock_ns () =
  Stat.median
    (Array.init 10_001 (fun _ ->
         let t0 = Stat.now_ns () in
         float_of_int (Stat.now_ns () - t0)))

(* Controller figures are scaled to one pass and set against the plain
   (unwrapped) run time, so the wrapper's own cost does not inflate
   them. *)
let per_layer l sim_s =
  let fsim x = float_of_int x /. sim_s in
  let unperturbed r =
    List.fold_left
      (fun a u -> if l.perturbed.(u) then a else a +. Stat.median (Reps.times r u))
      0.0 (Reps.timed r)
  in
  let perturbed = Array.fold_left (fun a p -> a + Bool.to_int p) 0 l.perturbed in
  let over a b = (Reps.sum_median a /. Reps.sum_median b) -. 1.0 in
  (* The scenario and harness layers are idle on the classic workloads:
     nothing is loaded, instantiated or supervised, so their time is 0. *)
  let p50 xs what =
    if xs = [] then (0.0, "idle on this workload")
    else
      ( fst (pct ~p:50.0 (Array.of_list xs) ~what),
        Printf.sprintf "%d calls" (List.length xs) )
  in
  let clock = clock_ns () in
  let passes = float_of_int !traced_passes in
  let base_ns = Reps.sum_median l.base *. 1e9 in
  let self a = Float.max 0.0 ((float_of_int a.ns /. float_of_int (max 1 a.calls)) -. clock) in
  let per_pass a = float_of_int a.calls /. passes in
  let fams =
    Hashtbl.fold (fun k a acc -> (k, a) :: acc) families []
    |> List.sort compare
  in
  List.iter
    (fun (name, a) ->
      Printf.printf
        "controller[%s] calls_per_sim_s=%.6g ns_per_call=%.6g share=%.6g\n" name
        (per_pass a /. sim_s) (self a)
        (per_pass a *. self a /. base_ns))
    fams;
  let ns, calls = controller_total () in
  let all = { ns; calls } in
  let ctl_ns = per_pass all *. self all in
  [
    m "eventsim.events_fired_per_sim_s" (fsim l.fired) "1/sim_s" "";
    m "eventsim.events_scheduled_per_sim_s" (fsim l.scheduled) "1/sim_s" "";
    m "eventsim.max_queued" (float_of_int l.max_queued) "count" "max over units";
    m "eventsim.wheel_speedup"
      (Reps.sum_median l.base /. Reps.sum_median l.wheel)
      "ratio" "default kernel time / wheel kernel time";
    m "controller.calls_per_sim_s" (per_pass all /. sim_s) "1/sim_s" "";
    m "controller.ns_per_call" (self all) "ns"
      (Printf.sprintf "%d calls, less %.0f ns clock read" calls clock);
    m "controller.share" (ctl_ns /. base_ns) "ratio" "of plain Runner.run time";
    m "net.pkts_per_sim_s" (fsim l.sent) "1/sim_s" "";
    m "net.ns_per_pkt"
      ((base_ns -. ctl_ns) /. float_of_int (max 1 l.sent))
      "ns" "Runner.run minus controller";
    m "net.loss_share"
      (float_of_int l.lost /. float_of_int (max 1 l.sent))
      "ratio" "";
    m "net.hop_drops" (float_of_int l.hop_drops) "count" "losses on links >= 1";
    m "gc.minor_words_per_sim_s" (l.minor /. sim_s) "words/sim_s" "";
    m "gc.promoted_words_per_sim_s" (l.promoted /. sim_s) "words/sim_s" "";
    m "gc.major_collections" (float_of_int l.majors) "count" "one pass";
    m "flow_stats.query_us"
      (Stat.median (Array.of_list l.query_us))
      "us"
      (Printf.sprintf "median of %d unit reps" (List.length l.query_us));
    m "audit.events_checked_per_sim_s" (fsim l.checked) "1/sim_s" "";
    m "audit.share"
      (let on = unperturbed l.audit_on in
       (on -. unperturbed l.audit_off) /. on)
      "ratio"
      (Printf.sprintf "of audited run time, %d units"
         (List.length (Reps.timed l.audit_on) - perturbed));
    m "audit.perturbed_units" (float_of_int perturbed) "count"
      "fluid units the auditor's backlog reads change";
    m "obs.trace_share" (over l.bus l.base) "ratio" "enabled bus vs disabled";
    m "obs.trace_dropped" (float_of_int l.dropped) "count" "one pass";
    m "scenario.load_ms" (1000.0 *. Reps.sum_median l.load) "ms"
      (match Reps.units l.load with
      | 0 -> "idle on this workload"
      | n -> Printf.sprintf "sum of %d sources" n);
    (let v, note = p50 l.inst_us "instantiations" in
     m "scenario.instantiate_us_p50" v "us" note);
    (let v, note = p50 l.sup_us "supervised runs" in
     m "harness.supervise_us_p50" v "us" note);
    m "trace.overhead_share" (over l.ctl l.base) "ratio"
      "wrapped vs plain sim_s_per_wall_s";
    m "host.rep_spread" (Reps.spread l.base) "ratio" "";
  ]

let json_number v = Printf.sprintf "%.17g" v

let print_result ?factor ~units ~passes ~spread metrics ~moves_col =
  let nf = failed units in
  Array.iter
    (fun s ->
      Option.iter (fun why -> Printf.printf "FAIL %s: %s\n" s.id why) s.failure)
    units;
  Printf.printf
    "facts nproc=%d ocaml=%s profile=%s domains=1 kernel=default k=%d units=%d \
     host.rep_spread=%.4f%s\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Build_info.profile passes (Array.length units) spread
    (match factor with
    | Some f -> Printf.sprintf " host.factor=%.4f" f
    | None -> "");
  List.iter
    (fun x ->
      if moves_col then
        Printf.printf "%-38s %16.6g %-12s %-34s moves %s\n" x.name x.value x.unit_
          x.note (moves x.name)
      else Printf.printf "%-20s %16.6g %-8s %s\n" x.name x.value x.unit_ x.note)
    metrics;
  let bad = List.filter (fun x -> not (Float.is_finite x.value)) metrics in
  List.iter (fun x -> Printf.printf "FAIL metric %s is not finite\n" x.name) bad;
  let ok = nf = 0 && bad = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    ok (Array.length units) nf
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
              (if Float.is_finite x.value then json_number x.value else "null")
              x.unit_)
          metrics));
  ok

let workloads = [ "paper_pair"; "many_flow"; "corpus_sweep" ]

let () =
  let workload = ref "" and seed = ref 1 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " timed-phase budget (s)");
      ("--trace", Arg.Set_int trace, " 1 = per-layer traced run");
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline
      ("perfbench: --workload must be one of " ^ String.concat ", " workloads
     ^ "; --trace 0 or 1");
    exit 2
  end;
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n%!" !workload
    !seed !seconds !trace;
  let ok =
    try
      if !trace = 0 then
        let res =
          match !workload with
          | "paper_pair" -> run_classic (paper_pair !seed)
          | "many_flow" -> run_classic (many_flow !seed)
          | _ -> run_corpus !seed
        in
        print_result ~factor:res.factor ~units:res.units ~passes:res.passes
          ~spread:(Reps.spread res.run) (end_to_end res) ~moves_col:false
      else
        let st, l, sim_s =
          match !workload with
          | "paper_pair" -> trace_classic (paper_pair !seed)
          | "many_flow" -> trace_classic (many_flow !seed)
          | _ -> trace_corpus !seed
        in
        print_result ~units:st ~passes:!traced_passes
          ~spread:(Reps.spread l.base) (per_layer l sim_s) ~moves_col:true
    with e ->
      Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
      exit 2
  in
  exit (if ok then 0 else 1)
