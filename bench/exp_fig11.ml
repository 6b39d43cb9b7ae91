(* Fig. 11: application benchmarks with a background scavenger on a
   100 Mbps access link.
   (a) DASH video: 1/2/4/8 concurrent BOLA streams (CUBIC transport, as
       dash.js-over-TCP), with no background flow, or a background
       Proteus-S / LEDBAT / CUBIC bulk flow. Metric: mean chunk bitrate.
   (b) Web: Poisson page loads (1 per 10 s) over CUBIC with the same
       background options. Metric: page load time CDF. *)

module Net = Proteus_net
module Video = Proteus_video
module Web = Proteus_web
module D = Proteus_stats.Descriptive

let backgrounds =
  [
    ("none", None);
    ("proteus-s", Some "proteus-s");
    ("ledbat", Some "ledbat-100");
    ("cubic", Some "cubic");
  ]

let add_background r = function
  | Some name -> (
      match Proteus_scenario.Protocols.factory name with
      | Ok factory -> ignore (Net.Runner.add_flow r ~label:"background" ~factory)
      | Error e -> invalid_arg e)
  | None -> ()

(* A Big-Buck-Bunny-style ladder topping at 16 Mbps, matching the
   bitrate range of the paper's Fig. 11a y-axis. *)
let bbb i =
  Video.Video.make_custom
    ~name:(Printf.sprintf "bbb-%d" i)
    ~chunk_duration:3.0
    ~bitrates_mbps:[| 0.5; 1.0; 2.0; 3.0; 4.5; 7.0; 10.0; 12.0; 16.0 |]
    ~n_chunks:200

let access_cfg () =
  Net.Link.config ~bandwidth_mbps:100.0 ~rtt_ms:30.0
    ~buffer_bytes:(Net.Units.kb 900.0) ()

let dash ~n_videos ~background =
  let r = Net.Runner.create ~seed:5 (access_cfg ()) in
  add_background r background;
  let sessions =
    List.init n_videos (fun i ->
        Video.Session.start r ~video:(bbb i) ~startup_offset:2.0
          ~transport:(Video.Session.Plain (Proteus_cc.Cubic.factory ())))
  in
  let horizon = Exp_common.pick ~fast:60.0 ~default:120.0 ~full:180.0 in
  Net.Runner.run r ~until:horizon;
  let reports = List.map (Video.Session.report ~now:horizon) sessions in
  D.mean
    (Array.of_list
       (List.map (fun rep -> rep.Video.Session.avg_chunk_bitrate_mbps) reports))

let web ~background =
  let r = Net.Runner.create ~seed:6 (access_cfg ()) in
  add_background r background;
  let horizon = Exp_common.pick ~fast:120.0 ~default:300.0 ~full:600.0 in
  let results =
    Web.Load_test.run r
      ~pages:(Web.Page.corpus ~n:30 ())
      ~factory:(Proteus_cc.Cubic.factory ())
      ~request_rate_per_sec:0.1 ~from_time:5.0 ~until:(horizon -. 20.0)
  in
  Net.Runner.run r ~until:horizon;
  Web.Load_test.load_times !results

let run () =
  Exp_common.run_experiment ~id:"fig11"
    ~title:
      "Fig. 11 — application benchmarks with a background scavenger\n\
       (100 Mbps access link, 30 ms RTT)"
  @@ fun () ->
  Exp_common.subheader "(a) DASH mean chunk bitrate (Mbps) vs #videos";
  let counts = [ 1; 2; 4; 8 ] in
  Printf.printf "%-18s" "background";
  List.iter (fun n -> Printf.printf "%8d" n) counts;
  print_newline ();
  List.iter
    (fun (name, bg) ->
      Printf.printf "%-18s" ("DASH + " ^ name);
      List.iter
        (fun n -> Printf.printf "%8.2f" (dash ~n_videos:n ~background:bg))
        counts;
      print_newline ())
    backgrounds;
  Exp_common.subheader "(b) Page load time (seconds)";
  List.iter
    (fun (name, bg) ->
      let plts = web ~background:bg in
      if Array.length plts = 0 then
        Printf.printf "%-18s (no completed loads)\n" ("Chrome + " ^ name)
      else begin
        Printf.printf "%-18s n=%3d mean=%6.2f " ("Chrome + " ^ name)
          (Array.length plts) (D.mean plts);
        Exp_common.print_cdf "" plts
      end)
    backgrounds;
  Printf.printf
    "\nShape check: Proteus-S in the background is nearly invisible to\n\
     both applications; LEDBAT noticeably degrades them (2.5x lower DASH\n\
     bitrate at 8 videos in the paper); CUBIC is worst.\n";
  []
