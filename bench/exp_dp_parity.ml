(* Datapath parity gate: the faults-smoke outage scenario (plus a
   chaos-impaired dumbbell and a 3-hop chain) reruns with each
   monolithic controller swapped for its fold-program twin, and the
   full-precision flow digests must be
   byte-identical. Writes the two digest files CI compares with `cmp`
   (DP_digest_monolithic.txt / DP_digest_datapath.txt) and fails the
   process immediately on any in-process mismatch, so a local
   `main.exe dp-parity` is the same gate. *)

module Net = Proteus_net
module Link = Net.Link
module Topology = Net.Topology

let fmt_f v = Printf.sprintf "%.17g" v

let flow_digest f =
  let st = Net.Runner.stats f in
  let rtts = Net.Flow_stats.rtt_samples st ~t0:0.0 ~t1:infinity in
  let rtt_sum = Array.fold_left ( +. ) 0.0 rtts in
  Printf.sprintf
    "%s sent=%d acked=%d lost=%d dup=%d bytes=%s rtt_n=%d rtt_sum=%s first=%s \
     last=%s"
    (Net.Runner.label f)
    (Net.Flow_stats.packets_sent st)
    (Net.Flow_stats.packets_acked st)
    (Net.Flow_stats.packets_lost st)
    (Net.Flow_stats.packets_dup_acked st)
    (fmt_f (Net.Flow_stats.bytes_acked st))
    (Array.length rtts) (fmt_f rtt_sum)
    (match Net.Flow_stats.first_ack_time st with
    | Some t -> fmt_f t
    | None -> "-")
    (match Net.Flow_stats.last_ack_time st with
    | Some t -> fmt_f t
    | None -> "-")

(* The faults-smoke link: 2 s hard outage inside a 5 s run. *)
let outage_cfg () =
  Link.config
    ~schedule:[ (1.5, Link.Down { duration = 2.0; flush = false }) ]
    ~bandwidth_mbps:20.0 ~rtt_ms:30.0 ~buffer_bytes:150_000 ()

(* Reordering, duplication, bursty loss, an outage and a bandwidth
   step: every sender event path (ack / dup-ack / loss) feeds the
   folds. *)
let chaos_cfg () =
  Link.config ~reorder_prob:0.05 ~dup_prob:0.02
    ~loss:
      (Link.Gilbert_elliott
         { p_good_bad = 0.02; p_bad_good = 0.3; loss_good = 0.0; loss_bad = 0.4 })
    ~schedule:
      [
        (2.0, Link.Down { duration = 1.0; flush = false });
        (3.5, Link.Set_bandwidth 5.0);
      ]
    ~bandwidth_mbps:20.0 ~rtt_ms:30.0 ~buffer_bytes:150_000 ()

let chain_links () =
  [
    Link.config ~bandwidth_mbps:30.0 ~rtt_ms:10.0 ~buffer_bytes:120_000 ();
    Link.config ~loss_rate:0.01 ~bandwidth_mbps:12.0 ~rtt_ms:20.0
      ~buffer_bytes:90_000 ();
    Link.config ~bandwidth_mbps:25.0 ~rtt_ms:10.0 ~buffer_bytes:120_000 ();
  ]

(* Two flows of the protocol under test share the bottleneck (smoke
   shape); they stop a second before the horizon so the auditor can
   assert full conservation at the end. *)
let run_scenario ~seed ~topo ~route factory =
  let r = Net.Runner.create_topo ~seed topo in
  let a = Net.Runner.add_flow r ~stop:4.0 ?route ~label:"a" ~factory in
  let b =
    Net.Runner.add_flow r ~start:0.5 ~stop:4.0 ?route ~label:"b" ~factory
  in
  let audit = Net.Runner.attach_audit r in
  Net.Runner.run r ~until:5.5;
  Net.Audit.assert_quiesced audit;
  flow_digest a ^ " | " ^ flow_digest b

let scenarios () =
  let dumbbell cfg = (Topology.dumbbell cfg, None) in
  let chain () =
    let topo = Topology.chain (chain_links ()) in
    (topo, Some (Topology.chain_route topo))
  in
  [
    ("outage", dumbbell (outage_cfg ()));
    ("chaos", dumbbell (chaos_cfg ()));
    ("chain3", chain ());
  ]

type pair = {
  pid : string;  (* twin label: identical in both digest files *)
  mono : unit -> Net.Sender.factory;
  dp : unit -> Net.Sender.factory;
}

let pairs =
  [
    {
      pid = "cubic-twin";
      mono = (fun () -> Proteus_cc.Cubic.factory ());
      dp = (fun () -> Proteus_cc.Cubic_dp.factory ());
    };
    {
      pid = "ledbat-twin";
      mono = (fun () -> Proteus_cc.Ledbat.factory ());
      dp = (fun () -> Proteus_cc.Ledbat_dp.factory ());
    };
    {
      pid = "ledbat25-twin";
      mono =
        (fun () -> Proteus_cc.Ledbat.factory ~params:Proteus_cc.Ledbat.draft_25ms ());
      dp =
        (fun () ->
          Proteus_cc.Ledbat_dp.factory
            ~consts:[ ("target", Net.Units.ms 25.0) ]
            ());
    };
  ]

let run () =
  Exp_common.header
    "Datapath parity: fold-program twins vs monolithic controllers";
  let oc_mono = open_out "DP_digest_monolithic.txt" in
  let oc_dp = open_out "DP_digest_datapath.txt" in
  let mismatches = ref 0 in
  List.iter
    (fun (sid, (topo, route)) ->
      List.iter
        (fun p ->
          let d_mono = run_scenario ~seed:11 ~topo ~route (p.mono ()) in
          let d_dp = run_scenario ~seed:11 ~topo ~route (p.dp ()) in
          Printf.fprintf oc_mono "%s/%s %s\n" sid p.pid d_mono;
          Printf.fprintf oc_dp "%s/%s %s\n" sid p.pid d_dp;
          let ok = String.equal d_mono d_dp in
          if not ok then incr mismatches;
          Printf.printf "%-8s %-14s %s\n" sid p.pid
            (if ok then "ok" else "MISMATCH"))
        pairs)
    (scenarios ());
  close_out oc_mono;
  close_out oc_dp;
  Printf.printf "(wrote DP_digest_monolithic.txt, DP_digest_datapath.txt)\n";
  if !mismatches > 0 then
    failwith
      (Printf.sprintf "dp-parity: %d digest mismatch(es) between fold twins \
                       and monolithic controllers" !mismatches);
  Printf.printf "dp-parity: all %d twin runs byte-identical\n"
    (List.length (scenarios ()) * List.length pairs)
