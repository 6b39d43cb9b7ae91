(* Additional coverage: sender packing, confusion symmetry, noise spike
   bounds, workload interarrivals, session/BOLA parameters, controller
   configuration surface. *)

module Net = Proteus_net
module Stats = Proteus_stats
module Rng = Stats.Rng
module D = Stats.Descriptive

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------- Sender packing ---------- *)

let test_pack_delegates () =
  let env = Net.Sender.make_env ~rng:(Rng.create ~seed:1) ~mtu:1500 () in
  let packed = Proteus_cc.Cubic.factory () env in
  Alcotest.(check string) "name" "cubic" (Net.Sender.name packed);
  if Net.Sender.next_send packed ~now:0.0 > 0.0 then
    Alcotest.fail "fresh cubic should send";
  (* Drive the window closed through the packed interface. *)
  for seq = 0 to 9 do
    Net.Sender.on_sent packed ~now:0.0 ~seq ~size:1500
  done;
  if Float.is_finite (Net.Sender.next_send packed ~now:0.0) then
    Alcotest.fail "window should be full";
  Net.Sender.on_ack packed ~now:0.05 ~seq:0 ~send_time:0.0 ~size:1500
    ~rtt:0.05;
  if Net.Sender.next_send packed ~now:0.05 > 0.05 then
    Alcotest.fail "ack should reopen the window"

let test_proteus_sender_names () =
  let env () = Net.Sender.make_env ~rng:(Rng.create ~seed:1) ~mtu:1500 () in
  let name f = Net.Sender.name (f (env ())) in
  Alcotest.(check string) "s" "proteus:proteus-s"
    (name (Proteus.Presets.proteus_s ()));
  Alcotest.(check string) "vivace" "proteus:vivace"
    (name (Proteus.Presets.vivace ()));
  Alcotest.(check string) "allegro" "proteus:allegro"
    (name (Proteus.Presets.allegro ()))

(* ---------- Confusion symmetry ---------- *)

let prop_confusion_complementary =
  QCheck.Test.make ~name:"conf(A,B) + conf(B,A) = 1" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 30) (float_bound_exclusive 10.0))
        (list_of_size Gen.(int_range 1 30) (float_bound_exclusive 10.0)))
    (fun (a, b) ->
      let a = Array.of_list a and b = Array.of_list b in
      let ab = Stats.Confusion.probability_exact ~idle:a ~congested:b in
      let ba = Stats.Confusion.probability_exact ~idle:b ~congested:a in
      Float.abs (ab +. ba -. 1.0) < 1e-9)

(* ---------- Noise bounds ---------- *)

let test_wifi_spike_bounded () =
  let n = Net.Noise.create Net.Noise.default_wifi ~rng:(Rng.create ~seed:5) in
  for i = 1 to 20_000 do
    let nominal = float_of_int i *. 0.005 in
    let extra = Net.Noise.ack_delivery_time n ~nominal -. nominal in
    (* Spike cap 60 ms + gate 25 ms + jitter: anything much beyond is a
       bug. *)
    if extra > 0.1 then Alcotest.failf "wifi extra %.4f too large" extra
  done

let test_gaussian_zero_sigma_identity () =
  let n =
    Net.Noise.create (Net.Noise.Gaussian { sigma_ms = 0.0 })
      ~rng:(Rng.create ~seed:5)
  in
  check_float "identity" 3.0 (Net.Noise.ack_delivery_time n ~nominal:3.0)

(* ---------- Workload interarrivals ---------- *)

let test_poisson_interarrival_mean () =
  let cfg =
    Net.Link.config ~bandwidth_mbps:1000.0 ~rtt_ms:10.0
      ~buffer_bytes:10_000_000 ()
  in
  let r = Net.Runner.create ~seed:12 cfg in
  let flows =
    Net.Workload.poisson_short_flows r
      ~factory:(Proteus_cc.Cubic.factory ())
      ~rate_per_sec:5.0
      ~size_bytes:(fun _ -> 1500)
      ~from_time:0.0 ~until:200.0 ~label_prefix:"w"
  in
  Net.Runner.run r ~until:200.0;
  let n = List.length !flows in
  (* Poisson(1000): 4 sigma ~ 126. *)
  if n < 870 || n > 1130 then Alcotest.failf "expected ~1000 flows, got %d" n

(* ---------- Session & BOLA parameters ---------- *)

let test_bola_gp_decisions_valid () =
  (* Whatever gp, decisions stay within the ladder and remain monotone
     in the buffer level. *)
  let v = Proteus_video.Video.make_4k ~seed:3 ~name:"g" () in
  List.iter
    (fun gp ->
      let b =
        Proteus_video.Bola.create ~gp ~video:v ~buffer_capacity_chunks:4.0 ()
      in
      let prev = ref (-1) in
      List.iter
        (fun q ->
          match Proteus_video.Bola.decide b ~buffer_chunks:q with
          | Proteus_video.Bola.Download { level; bitrate_mbps } ->
              if level < 0 || level >= Array.length v.Proteus_video.Video.bitrates_mbps
              then Alcotest.failf "level %d out of ladder" level;
              if bitrate_mbps <> v.Proteus_video.Video.bitrates_mbps.(level)
              then Alcotest.fail "bitrate/level mismatch";
              if level < !prev then
                Alcotest.failf "gp=%.1f: level fell from %d to %d as buffer grew"
                  gp !prev level;
              prev := level
          | Proteus_video.Bola.Abstain -> ())
        [ 0.0; 1.0; 2.0; 3.0; 3.9 ])
    [ 1.0; 2.0; 5.0; 10.0 ]

let test_session_reports_video_name () =
  let cfg =
    Net.Link.config ~bandwidth_mbps:50.0 ~rtt_ms:30.0 ~buffer_bytes:375_000 ()
  in
  let r = Net.Runner.create cfg in
  let v = Proteus_video.Video.make_1080p ~seed:8 ~name:"named" () in
  let s =
    Proteus_video.Session.start r ~video:v
      ~transport:(Proteus_video.Session.Plain (Proteus_cc.Cubic.factory ()))
  in
  Net.Runner.run r ~until:20.0;
  let rep = Proteus_video.Session.report s ~now:20.0 in
  Alcotest.(check string) "name" "named" rep.Proteus_video.Session.video_name;
  if rep.Proteus_video.Session.chunks_downloaded = 0 then
    Alcotest.fail "no chunks in 20 s at 50 Mbps"

let test_session_determinism () =
  let run () =
    let cfg =
      Net.Link.config ~bandwidth_mbps:30.0 ~rtt_ms:30.0 ~buffer_bytes:300_000 ()
    in
    let r = Net.Runner.create ~seed:77 cfg in
    let v = Proteus_video.Video.make_1080p ~seed:8 ~name:"d" () in
    let s =
      Proteus_video.Session.start r ~video:v
        ~transport:(Proteus_video.Session.Plain (Proteus_cc.Cubic.factory ()))
    in
    Net.Runner.run r ~until:30.0;
    let rep = Proteus_video.Session.report s ~now:30.0 in
    ( rep.Proteus_video.Session.chunks_downloaded,
      rep.Proteus_video.Session.avg_chunk_bitrate_mbps )
  in
  let a = run () and b = run () in
  Alcotest.(check int) "chunks equal" (fst a) (fst b);
  check_float "bitrate equal" (snd a) (snd b)

(* ---------- Controller config surface ---------- *)

let test_config_presets_differ () =
  let u = Proteus.Utility.proteus_p () in
  let d = Proteus.Controller.default_config ~utility:u in
  let v = Proteus.Controller.vivace_config ~utility:u in
  Alcotest.(check bool) "proteus majority" true
    (d.Proteus.Controller.probing_mode = Proteus.Controller.Majority3);
  Alcotest.(check bool) "vivace consistent2" true
    (v.Proteus.Controller.probing_mode = Proteus.Controller.Consistent2);
  Alcotest.(check bool) "proteus ack filter" true
    d.Proteus.Controller.use_ack_filter;
  Alcotest.(check bool) "vivace no ack filter" false
    v.Proteus.Controller.use_ack_filter;
  Alcotest.(check bool) "vivace fixed tolerance" true
    (v.Proteus.Controller.tolerance.Proteus.Tolerance.fixed_gradient_threshold
     <> None)

let test_min_rate_respected () =
  (* Against a saturating CUBIC, the scavenger never drops below its
     configured floor. *)
  let cfg =
    Net.Link.config ~bandwidth_mbps:20.0 ~rtt_ms:30.0 ~buffer_bytes:150_000 ()
  in
  let ccfg =
    Proteus.Controller.default_config ~utility:(Proteus.Utility.proteus_s ())
  in
  let factory, get = Proteus.Presets.with_handle ccfg in
  let r = Net.Runner.create cfg in
  ignore
    (Net.Runner.add_flow r ~label:"cubic" ~factory:(Proteus_cc.Cubic.factory ()));
  ignore (Net.Runner.add_flow r ~label:"scav" ~factory);
  Net.Runner.run r ~until:30.0;
  let c = Option.get (get ()) in
  if Proteus.Controller.rate_mbps c < ccfg.Proteus.Controller.min_rate_mbps -. 1e-9
  then
    Alcotest.failf "rate %.4f below floor" (Proteus.Controller.rate_mbps c)

let suite =
  [
    ("sender pack delegation", `Quick, test_pack_delegates);
    ("proteus sender names", `Quick, test_proteus_sender_names);
    ("wifi spike bounded", `Quick, test_wifi_spike_bounded);
    ("gaussian zero sigma", `Quick, test_gaussian_zero_sigma_identity);
    ("poisson interarrival mean", `Slow, test_poisson_interarrival_mean);
    ("bola gp decisions valid", `Quick, test_bola_gp_decisions_valid);
    ("session video name", `Quick, test_session_reports_video_name);
    ("session determinism", `Slow, test_session_determinism);
    ("config presets differ", `Quick, test_config_presets_differ);
    ("min rate floor", `Slow, test_min_rate_respected);
  ]
  @ [ QCheck_alcotest.to_alcotest prop_confusion_complementary ]
