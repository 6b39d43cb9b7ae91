(* Bit-identity oracles for the allocation-free statistics path.

   [Descriptive.mean/variance/stddev], [Regression.fit] and the
   trending history of [Tolerance] run as [for] loops over length
   prefixes and fixed float arrays. Their reference implementations —
   the [Array.fold_left] statistics and the list-based six-MI history
   they replaced — are kept here, and every property demands equality
   of the float bits, not closeness: the committed goldens depend on
   the exact summation order. *)

open Proteus_stats
module Mi = Proteus.Mi
module Tolerance = Proteus.Tolerance
module Mean_dev = Ewma.Mean_dev

(* Equal bits, or both NaN. Which operand's payload a NaN result
   carries is not fixed by the source: the code generator may commute
   the operands of [+.], so two NaN inputs can surface either payload
   in either implementation. *)
let same a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  || (Float.is_nan a && Float.is_nan b)

(* ---------- fold-based references ---------- *)

let fold_mean xs =
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let fold_variance xs =
  let m = fold_mean xs in
  Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
  /. float_of_int (Array.length xs)

let fold_stddev xs = sqrt (fold_variance xs)

let fold_fit ~x ~y =
  let n = Array.length x in
  let nf = float_of_int n in
  let mx = Array.fold_left ( +. ) 0.0 x /. nf in
  let my = Array.fold_left ( +. ) 0.0 y /. nf in
  let sxx = ref 0.0 and sxy = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = x.(i) -. mx in
    sxx := !sxx +. (dx *. dx);
    sxy := !sxy +. (dx *. (y.(i) -. my))
  done;
  let slope = if !sxx = 0.0 then 0.0 else !sxy /. !sxx in
  let intercept = my -. (slope *. mx) in
  let ss_res = ref 0.0 in
  for i = 0 to n - 1 do
    let r = y.(i) -. (intercept +. (slope *. x.(i))) in
    ss_res := !ss_res +. (r *. r)
  done;
  (slope, intercept, sqrt (!ss_res /. nf))

let fold_slope_of_indexed ys =
  let x = Array.init (Array.length ys) (fun i -> float_of_int (i + 1)) in
  let slope, _, _ = fold_fit ~x ~y:ys in
  slope

(* ---------- list-based Tolerance reference ---------- *)

module List_tolerance = struct
  type t = {
    config : Tolerance.config;
    mutable avg_rtts : float list;
    mutable deviations : float list;
    trend_grad : Mean_dev.t;
    trend_dev : Mean_dev.t;
  }

  let create config =
    {
      config;
      avg_rtts = [];
      deviations = [];
      trend_grad = Mean_dev.create ();
      trend_dev = Mean_dev.create ();
    }

  let push_bounded t x xs =
    let xs = xs @ [ x ] in
    let extra = List.length xs - t.config.Tolerance.history in
    if extra > 0 then List.filteri (fun i _ -> i >= extra) xs else xs

  let update_trending t (m : Mi.metrics) =
    t.avg_rtts <- push_bounded t m.Mi.avg_rtt t.avg_rtts;
    t.deviations <- push_bounded t m.Mi.rtt_deviation t.deviations;
    if List.length t.avg_rtts < 2 then (false, false)
    else begin
      let trending_gradient =
        fold_slope_of_indexed (Array.of_list t.avg_rtts)
      in
      let trending_deviation = fold_stddev (Array.of_list t.deviations) in
      (* [Mean_dev]'s accessors read NaN where the option API they
         replaced read [None]. *)
      let opt x = if Float.is_nan x then None else Some x in
      let significant tracker sample ~gate ~two_sided =
        let result =
          match
            (opt (Mean_dev.mean_nan tracker), opt (Mean_dev.deviation_nan tracker))
          with
          | Some avg, Some dev when Mean_dev.n_samples tracker >= 3 ->
              let delta =
                if two_sided then Float.abs (sample -. avg) else sample -. avg
              in
              delta >= gate *. dev
          | _ -> false
        in
        Mean_dev.update tracker sample;
        result
      in
      let grad_sig =
        significant t.trend_grad trending_gradient ~gate:t.config.g1
          ~two_sided:true
      in
      let dev_sig =
        significant t.trend_dev trending_deviation ~gate:t.config.g2
          ~two_sided:false
      in
      (grad_sig, dev_sig)
    end

  let adjust t (m : Mi.metrics) =
    let m =
      match t.config.fixed_gradient_threshold with
      | Some threshold when Float.abs m.Mi.rtt_gradient < threshold ->
          { m with Mi.rtt_gradient = 0.0 }
      | _ -> m
    in
    let grad_sig, dev_sig =
      if t.config.trending_tolerance then update_trending t m
      else (false, false)
    in
    if not t.config.regression_tolerance then m
    else if Float.abs m.Mi.rtt_gradient < m.Mi.regression_error then begin
      let zero_grad = not grad_sig in
      let zero_dev = zero_grad && not dev_sig in
      {
        m with
        Mi.rtt_gradient = (if zero_grad then 0.0 else m.Mi.rtt_gradient);
        Mi.rtt_deviation = (if zero_dev then 0.0 else m.Mi.rtt_deviation);
      }
    end
    else m
end

let same_metrics (a : Mi.metrics) (b : Mi.metrics) =
  same a.send_rate_mbps b.send_rate_mbps
  && same a.target_rate_mbps b.target_rate_mbps
  && same a.loss_rate b.loss_rate && same a.avg_rtt b.avg_rtt
  && same a.rtt_gradient b.rtt_gradient
  && same a.rtt_deviation b.rtt_deviation
  && same a.regression_error b.regression_error
  && same a.duration b.duration

let print_metrics (m : Mi.metrics) =
  Printf.sprintf "{rate %h; avg %h; grad %h; dev %h; err %h}"
    m.send_rate_mbps m.avg_rtt m.rtt_gradient m.rtt_deviation
    m.regression_error

(* ---------- generators ---------- *)

(* RTT-scale samples, values spanning many magnitudes (squares that
   underflow or overflow), and IEEE specials. *)
let gen_sample =
  QCheck.Gen.(
    frequency
      [
        (6, float_range 0.0 0.5);
        (2, float_range (-1e6) 1e6);
        (1, map (fun e -> ldexp 1.0 e) (int_range (-1070) 1020));
        (1, oneofl [ 0.0; -0.0; infinity; neg_infinity; Float.nan ]);
      ])

let gen_samples lo hi = QCheck.Gen.(array_size (int_range lo hi) gen_sample)

let print_floats xs =
  "[|" ^ String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") xs)) ^ "|]"

(* ---------- Descriptive and Regression ---------- *)

let prop_descriptive =
  QCheck.Test.make ~count:500
    ~name:"mean/variance/stddev loops equal the folds bit for bit"
    (QCheck.make ~print:print_floats (gen_samples 1 64))
    (fun xs ->
      let n = Array.length xs in
      let ok = ref true and out = Array.make 2 0.0 in
      for len = 1 to n do
        let sub = Array.sub xs 0 len in
        Descriptive.moments_prefix_into xs ~len ~out;
        ok :=
          !ok
          && same (Descriptive.mean_prefix xs ~len) (fold_mean sub)
          && same (Descriptive.variance_prefix xs ~len) (fold_variance sub)
          && same out.(0) (fold_mean sub)
          && same out.(1) (fold_stddev sub)
      done;
      !ok
      && same (Descriptive.mean xs) (fold_mean xs)
      && same (Descriptive.variance xs) (fold_variance xs)
      && same (Descriptive.stddev xs) (fold_stddev xs))

let prop_regression =
  QCheck.Test.make ~count:500
    ~name:"regression loops equal the fold fit bit for bit"
    (QCheck.make
       ~print:(fun (x, y) -> print_floats x ^ " / " ^ print_floats y)
       QCheck.Gen.(
         int_range 1 48 >>= fun n ->
         pair (array_repeat n gen_sample) (array_repeat n gen_sample)))
    (fun (x, y) ->
      let n = Array.length x in
      let ok = ref true in
      for len = 1 to n do
        let sx = Array.sub x 0 len and sy = Array.sub y 0 len in
        let slope, intercept, rms = fold_fit ~x:sx ~y:sy in
        let f = Regression.fit_prefix ~x ~y ~len in
        ok :=
          !ok && same f.slope slope && same f.intercept intercept
          && same f.residual_rms rms
          && same (Regression.slope_of_indexed y ~len)
               (fold_slope_of_indexed sy)
      done;
      let slope, _, _ = fold_fit ~x ~y in
      !ok && same (Regression.fit ~x ~y).slope slope
      && same
           (Regression.slope_of_indexed y ~len:n)
           (fold_slope_of_indexed y))

(* [pow (d, 2)] and [d *. d] differ in the last bit for this [d] under
   glibc's libm, so rewriting [** 2.0] as a multiplication changes
   [variance] here. The goldens were computed with [pow]. *)
let test_pow_pin () =
  let d = 0x1.3cab81f969e3cp-9 in
  Alcotest.(check bool) "pow(d, 2) <> d * d for the pin" false (d ** 2.0 = d *. d);
  let xs = [| 0.0; 2.0 *. d |] in
  Alcotest.(check string)
    "variance keeps pow" "0x1.87b7dbc6a29b1p-18"
    (Printf.sprintf "%h" (Descriptive.variance xs));
  Alcotest.(check bool)
    "equals the fold" true
    (same (Descriptive.variance xs) (fold_variance xs))

(* ---------- the [**] kernels and branch-only min/max ---------- *)

(* Inputs for the integer-power kernels: random values across every
   binade (subnormals included) and in the working range; values near
   rounding midpoints, built from short mantissas (18 bits cube to 54,
   27 bits square to 54, so some results tie exactly) moved by up to
   two ulps; powers of two and values whose power lands next to one;
   the fast paths' range limits; and the special values. Near-midpoint
   values are also placed just inside and outside the range limits and
   where the results turn subnormal, since that is where a missing
   range check goes wrong. *)
let gen_power_input =
  let open QCheck.Gen in
  let nudge x k =
    let u = Float.succ (Float.abs x) -. Float.abs x in
    x +. (float_of_int k *. u)
  in
  let short_mantissa =
    oneofl [ 17; 18; 26; 27 ] >>= fun bits ->
    int_bound ((1 lsl (bits - 1)) - 1) >|= fun m ->
    float_of_int ((1 lsl (bits - 1)) lor m lor 1) *. ldexp 1.0 (1 - bits)
  in
  let edge_exp =
    oneof
      [
        int_range (-60) 60;
        (oneofl [ -450; -300; 300; 450 ] >>= fun e -> int_range (e - 2) (e + 2));
        int_range (-350) (-330) (* cubes turn subnormal *);
        int_range (-513) (-510) (* squares turn subnormal *);
      ]
  in
  let value =
    frequency
      [
        ( 3,
          pair (float_range 1.0 2.0) (int_range (-1074) 1023) >|= fun (m, e) ->
          ldexp m e );
        (3, pair (float_range 1.0 2.0) (int_range (-40) 40) >|= fun (m, e) -> ldexp m e);
        ( 4,
          triple short_mantissa edge_exp (int_range (-2) 2) >|= fun (m, e, k) ->
          nudge (ldexp m e) k );
        ( 1,
          pair (int_range (-1074) 1023) (int_range (-2) 2) >|= fun (e, k) ->
          nudge (ldexp 1.0 e) k );
        ( 1,
          triple (int_range (-1000) 1000) bool (int_range (-2) 2)
          >|= fun (e, cubic, k) ->
          let p = ldexp 1.0 e in
          nudge (if cubic then Float.cbrt p else Float.sqrt p) k );
        ( 1,
          pair (oneofl [ 0x1p-450; 0x1p-300; 0x1p300; 0x1p450 ]) (int_range (-2) 2)
          >|= fun (x, k) -> nudge x k );
        ( 1,
          oneofl
            [
              0.0; Float.min_float; 0x1p-1074; Float.max_float; infinity; Float.nan;
            ] );
      ]
  in
  pair value bool >|= fun (x, neg) -> if neg then Float.neg x else x

let prop_power_kernels =
  QCheck.Test.make ~count:300
    ~name:"cube and square equal x ** 3.0 and x ** 2.0 bit for bit"
    (QCheck.make ~print:print_floats
       QCheck.Gen.(array_repeat 100 gen_power_input))
    (Array.for_all (fun x ->
         same (Proteus_cc.Cubic.cube x) (x ** 3.0)
         && same (Descriptive.square x) (x ** 2.0)))

(* Signed zeros, NaN and infinities on either side, equal operands and
   ordered pairs. *)
let prop_fmax_fmin =
  let special =
    QCheck.Gen.oneofl [ 0.0; -0.0; Float.nan; infinity; neg_infinity; 1.0; -1.0 ]
  in
  let operand = QCheck.Gen.(frequency [ (1, special); (1, gen_sample) ]) in
  QCheck.Test.make ~count:2000 ~name:"fmax and fmin equal Float.max and Float.min"
    (QCheck.make
       ~print:(fun (a, b) -> Printf.sprintf "%h %h" a b)
       QCheck.Gen.(
         frequency
           [ (4, pair operand operand); (1, operand >|= fun a -> (a, a)) ]))
    (fun (a, b) ->
      let bits_same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
      bits_same (Descriptive.fmax a b) (Float.max a b)
      && bits_same (Descriptive.fmin a b) (Float.min a b))

(* ---------- Tolerance ---------- *)

let gen_metrics =
  QCheck.Gen.(
    map
      (fun ((avg, dev, grad), err) ->
        {
          Mi.send_rate_mbps = 10.0;
          target_rate_mbps = 10.0;
          loss_rate = 0.0;
          avg_rtt = avg;
          rtt_gradient = grad;
          rtt_deviation = dev;
          regression_error = err;
          duration = 0.03;
        })
      (pair
         (triple (float_range 0.01 0.2) (float_range 0.0 0.02)
            (float_range (-0.05) 0.05))
         (float_range 0.0 0.05)))

let gen_config =
  QCheck.Gen.(
    map
      (fun ((history, regression_tolerance, trending_tolerance), fixed) ->
        {
          Tolerance.proteus_default with
          history;
          regression_tolerance;
          trending_tolerance;
          fixed_gradient_threshold = fixed;
        })
      (pair
         (triple (int_range 0 7) bool bool)
         (opt ~ratio:0.2 (float_range 0.0 0.02))))

let prop_tolerance =
  QCheck.Test.make ~count:500
    ~name:"tolerance history arrays equal the list history bit for bit"
    (QCheck.make
       ~print:(fun ((c : Tolerance.config), ms) ->
         Printf.sprintf "history=%d reg=%b trend=%b mis=%d" c.history
           c.regression_tolerance c.trending_tolerance (List.length ms))
       QCheck.Gen.(pair gen_config (list_size (int_range 0 40) gen_metrics)))
    (fun (config, ms) ->
      let arr = Tolerance.create config and lst = List_tolerance.create config in
      List.for_all
        (fun m ->
          let a = { m with Mi.duration = m.Mi.duration } in
          Tolerance.adjust arr a;
          let b = List_tolerance.adjust lst m in
          same_metrics a b
          || QCheck.Test.fail_reportf "arrays %s / lists %s" (print_metrics a)
               (print_metrics b))
        ms)

(* ---------- Mi: in-place statistics and reuse ---------- *)

(* An MI's metrics as the copying implementation computed them. *)
let fold_mi_metrics (m : Mi.metrics) ~send_times ~rtts =
  let n = Array.length rtts in
  if n < 2 then m
  else begin
    let slope, _, rms = fold_fit ~x:send_times ~y:rtts in
    {
      m with
      Mi.avg_rtt = fold_mean rtts;
      rtt_gradient = slope;
      rtt_deviation = fold_stddev rtts;
      regression_error = rms /. m.duration;
    }
  end

(* Feed one interval: [sent] packets, the samples as ACKs (NaN = a
   filtered sample), then losses for the rest. *)
let fill mi ~samples ~sent =
  for _ = 1 to sent do
    Mi.record_sent mi ~size:1500
  done;
  let meta = Array.make 3 0.0 in
  Array.iteri
    (fun i rtt ->
      meta.(1) <- 0.001 *. float_of_int i;
      meta.(2) <- rtt;
      Mi.record_ack_m mi ~meta ~accepted:(i mod 5 <> 4))
    samples;
  for _ = Array.length samples + 1 to sent do
    Mi.record_loss mi
  done;
  Mi.close mi ~times:[| 0.0; 0.0; 0.05 |]

let gen_interval =
  QCheck.Gen.(
    oneofl [ 0; 1; 2 ] >>= fun small ->
    int_range 3 300 >>= fun many ->
    oneofl [ small; many ] >>= fun n ->
    array_repeat n (float_range 0.01 0.2) >>= fun samples ->
    int_range n (n + 5) >|= fun sent -> (samples, sent))

let accepted_samples samples =
  let acc = ref [] and times = ref [] in
  Array.iteri
    (fun i rtt ->
      if i mod 5 <> 4 then begin
        acc := rtt :: !acc;
        times := (0.001 *. float_of_int i) :: !times
      end)
    samples;
  (Array.of_list (List.rev !times), Array.of_list (List.rev !acc))

let prop_mi_reuse =
  QCheck.Test.make ~count:300
    ~name:"a reset MI computes what a fresh one and the folds compute"
    (QCheck.make
       ~print:(fun ((a, _), (b, _)) ->
         Printf.sprintf "first %d samples, then %d" (Array.length a)
           (Array.length b))
       QCheck.Gen.(pair gen_interval gen_interval))
    (fun ((samples_a, sent_a), (samples_b, sent_b)) ->
      let fresh = Mi.create ~id:7 ~target_rate:125_000.0 ~start_time:0.01 in
      fill fresh ~samples:samples_b ~sent:sent_b;
      let reused = Mi.create ~id:3 ~target_rate:1e6 ~start_time:0.0 in
      fill reused ~samples:samples_a ~sent:sent_a;
      ignore (Mi.metrics reused);
      Mi.reset reused ~id:7 ~times:[| 125_000.0; 0.01; 0.0 |];
      fill reused ~samples:samples_b ~sent:sent_b;
      let m_fresh = Mi.metrics fresh and m_reused = Mi.metrics reused in
      let send_times, rtts = accepted_samples samples_b in
      let m_fold = fold_mi_metrics m_fresh ~send_times ~rtts in
      Mi.id reused = 7
      && (same_metrics m_fresh m_reused
         || QCheck.Test.fail_reportf "fresh %s / reused %s"
              (print_metrics m_fresh) (print_metrics m_reused))
      && (same_metrics m_fresh m_fold
         || QCheck.Test.fail_reportf "in place %s / folds %s"
              (print_metrics m_fresh) (print_metrics m_fold)))

(* ---------- Controller.Votes against the list-based probing round ---------- *)

module Controller = Proteus.Controller
module Votes = Controller.Votes

(* The probing round as the controller kept it before [Votes]: a list
   of (pair, up, utility) results, newest first, searched per pair. *)
module List_votes = struct
  let direction_of_pair results pair =
    let find up =
      List.find_opt (fun (p, u_, _) -> p = pair && u_ = up) results
    in
    match (find true, find false) with
    | Some (_, _, u_hi), Some (_, _, u_lo) ->
        if u_hi > u_lo then Some 1 else if u_lo > u_hi then Some (-1) else Some 0
    | _ -> None

  let avg_gradient ~epsilon results npairs ~base_rate =
    let dr =
      2.0 *. epsilon *. Proteus_net.Units.bytes_per_sec_to_mbps base_rate
    in
    let sum = ref 0.0 and n = ref 0 in
    for pair = 0 to npairs - 1 do
      let find up =
        List.find_opt (fun (p, u_, _) -> p = pair && u_ = up) results
      in
      match (find true, find false) with
      | Some (_, _, u_hi), Some (_, _, u_lo) when dr > 0.0 ->
          sum := !sum +. ((u_hi -. u_lo) /. dr);
          incr n
      | _ -> ()
    done;
    if !n = 0 then 0.0 else !sum /. float_of_int !n

  let decide_direction mode npairs results =
    let dirs =
      List.filter_map (direction_of_pair results) (List.init npairs (fun i -> i))
    in
    if List.length dirs < npairs then None
    else
      match mode with
      | Controller.Consistent2 -> (
          match dirs with [ a; b ] when a = b && a <> 0 -> Some a | _ -> Some 0)
      | Controller.Majority3 ->
          let count d = List.length (List.filter (fun x -> x = d) dirs) in
          if count 1 >= 2 then Some 1
          else if count (-1) >= 2 then Some (-1)
          else Some 0

  (* [handle_probe_result]'s utility of the side moved towards. *)
  let prev_utility results ~dir_int =
    let us =
      List.filter_map
        (fun (_, u_, util) -> if u_ = (dir_int = 1) then Some util else None)
        results
    in
    List.fold_left ( +. ) 0.0 us /. float_of_int (List.length us)
end

(* Utilities with frequent ties (a pair that votes 0), signed zeros and
   NaN (which never wins a comparison). *)
let gen_utility =
  QCheck.Gen.(
    frequency
      [
        (5, float_range (-50.0) 50.0);
        (3, oneofl [ 0.0; 1.0; -1.0; 2.5 ]);
        (1, oneofl [ -0.0; Float.nan; infinity; neg_infinity ]);
      ])

let gen_round =
  QCheck.Gen.(
    oneofl [ Controller.Consistent2; Controller.Majority3 ] >>= fun mode ->
    let npairs = match mode with Controller.Consistent2 -> 2 | _ -> 3 in
    shuffle_l
      (List.concat_map (fun p -> [ (p, true); (p, false) ]) (List.init npairs Fun.id))
    >>= fun order ->
    list_repeat (2 * npairs) gen_utility >>= fun us ->
    oneofl [ 0.05; 0.1; 0.0 ] >>= fun epsilon ->
    frequency [ (6, float_range 1e3 1e9); (1, return 0.0) ] >|= fun base_rate ->
    (mode, npairs, List.combine order us, epsilon, base_rate))

let prop_votes =
  QCheck.Test.make ~count:1000
    ~name:"probing votes decide as the list-based round, bit for bit"
    (QCheck.make
       ~print:(fun (mode, _, results, epsilon, base_rate) ->
         Printf.sprintf "%s eps %h base %h: %s"
           (match mode with Controller.Consistent2 -> "consistent2" | _ -> "majority3")
           epsilon base_rate
           (String.concat "; "
              (List.map
                 (fun ((p, up), u) -> Printf.sprintf "(%d,%b)=%h" p up u)
                 results)))
       gen_round)
    (fun (mode, npairs, results, epsilon, base_rate) ->
      let v = Votes.create () in
      Votes.reset v ~npairs;
      let rec go seen = function
        | [] -> true
        | ((pair, up), u) :: rest ->
            Votes.add v ~slot:(Votes.slot ~pair ~up) ~u;
            let seen = (pair, up, u) :: seen in
            let expected = List_votes.decide_direction mode npairs seen in
            let got =
              if Votes.complete v then Some (Votes.direction v mode) else None
            in
            (expected = got
            || QCheck.Test.fail_reportf "after %d results: direction differs"
                 (List.length seen))
            && go seen rest
      in
      go [] results
      &&
      let seen = List.rev_map (fun ((p, up), u) -> (p, up, u)) results in
      (same
         (Votes.gradient v ~epsilon ~base_rate)
         (List_votes.avg_gradient ~epsilon seen npairs ~base_rate)
      || QCheck.Test.fail_report "gradient differs")
      && List.for_all
           (fun dir_int ->
             same
               (Votes.mean_utility v ~up:(dir_int = 1))
               (List_votes.prev_utility seen ~dir_int)
             || QCheck.Test.fail_reportf "mean utility (%d) differs" dir_int)
           [ 1; -1 ])

(* ---------- Flow_stats: the per-ACK log against a list of triples ---------- *)

module Flow_stats = Proteus_net.Flow_stats

(* The log as the list of (ack time, bytes, rtt) triples it records,
   each query a left-to-right pass over the window [t0, t1). *)
module List_log = struct
  let window acks ~t0 ~t1 =
    List.filter (fun (time, _, _) -> time >= t0 && time < t1) acks

  let bytes acks ~t0 ~t1 =
    List.fold_left
      (fun s (_, b, _) -> s +. float_of_int b)
      0.0 (window acks ~t0 ~t1)

  let rtts acks ~t0 ~t1 =
    Array.of_list (List.map (fun (_, _, r) -> r) (window acks ~t0 ~t1))

  let series acks ~bin ~until =
    let nbins = int_of_float (Float.ceil (until /. bin)) in
    let acc = Array.make (max nbins 1) 0.0 in
    List.iter
      (fun (time, b, _) ->
        if time < until then begin
          let i = int_of_float (time /. bin) in
          if i < nbins then acc.(i) <- acc.(i) +. float_of_int b
        end)
      acks;
    Array.mapi
      (fun i x ->
        ( float_of_int i *. bin,
          Proteus_net.Units.bytes_per_sec_to_mbps (x /. bin) ))
      acc
end

(* Nondecreasing ACK times with runs of equal timestamps, sizes off the
   MTU, logs long enough to outgrow their first allocation (some within
   one ACK of a chunk boundary, so a last chunk may hold one entry), and
   windows that may hold no ACK at all. *)
let gen_acks =
  QCheck.Gen.(
    list_size
      (frequency
         [
           (5, int_range 0 300);
           (1, int_range 1000 2600);
           ( 1,
             map2
               (fun k d -> (k * 1024) + d)
               (int_range 1 2) (int_range (-1) 1) );
         ])
      (triple
         (frequency [ (2, return 0.0); (3, float_range 0.0 0.01) ])
         (frequency
            [ (3, return 1500); (1, int_range 1 1499); (1, return 40) ])
         (float_range 0.001 0.3))
    >|= fun steps ->
    let now = ref 0.0 in
    List.map
      (fun (dt, size, rtt) ->
        now := !now +. dt;
        (!now, size, rtt))
      steps)

(* All-MTU logs of three to four chunks with a single ACK off the MTU,
   at the first or the last slot of a chunk: the log keeps sizes other
   than the MTU apart from the chunks, and these place one where a scan
   crosses from chunk to chunk. *)
let gen_mtu_log =
  let mtu = Proteus_net.Units.mtu in
  QCheck.Gen.(
    int_range (3 * 1024) ((4 * 1024) + 1) >>= fun n ->
    int_range 0 ((n - 1) / 1024) >>= fun m ->
    oneofl [ m * 1024; min (n - 1) ((m * 1024) + 1023) ] >>= fun k ->
    frequency
      [ (2, int_range 1 (mtu - 1)); (1, return 40); (1, int_range (mtu + 1) 9000) ]
    >>= fun odd ->
    list_repeat n
      (pair
         (frequency [ (1, return 0.0); (4, float_range 1e-4 1e-3) ])
         (float_range 0.001 0.3))
    >|= fun steps ->
    let now = ref 0.0 in
    List.mapi
      (fun i (dt, rtt) ->
        now := !now +. dt;
        (!now, (if i = k then odd else mtu), rtt))
      steps)

let gen_log = QCheck.Gen.(frequency [ (4, gen_acks); (1, gen_mtu_log) ])

(* Window edges fall on logged ACK times as often as between them, and
   often on the time of an ACK off the MTU, so the ACKs at a window's
   edges and runs of equal timestamps are decided by the half-open
   rule. *)
let gen_window acks =
  QCheck.Gen.(
    let times = Array.of_list (List.map (fun (t, _, _) -> t) acks) in
    let odd_times =
      List.filter_map
        (fun (t, size, _) ->
          if size <> Proteus_net.Units.mtu then Some t else None)
        acks
    in
    let edge =
      if Array.length times = 0 then float_range (-0.1) 1.6
      else
        frequency
          ([
             (1, float_range (-0.1) 1.6);
             (1, map (fun i -> times.(i)) (int_bound (Array.length times - 1)));
           ]
          @ if odd_times = [] then [] else [ (1, oneofl odd_times) ])
    in
    pair edge edge >>= fun (a, b) ->
    frequency
      [ (1, return (a, a)); (6, return (Float.min a b, Float.max a b)) ])

let prop_flow_stats =
  QCheck.Test.make ~count:300
    ~name:"flow_stats queries equal a list-of-triples oracle bit for bit"
    (QCheck.make
       ~print:(fun (acks, windows, (bin, until), p) ->
         Printf.sprintf "%d acks, windows %s, bin %h until %h, p %h"
           (List.length acks)
           (String.concat " "
              (List.map (fun (a, b) -> Printf.sprintf "[%h,%h)" a b) windows))
           bin until p)
       QCheck.Gen.(
         gen_log >>= fun acks ->
         (* The series' end falls before, among or past the logged ACKs,
            so every chunk of a long log is summed some of the time. *)
         let last =
           match List.rev acks with [] -> 0.0 | (t, _, _) :: _ -> t
         in
         let gen_series =
           float_range 0.01 0.5 >>= fun bin ->
           frequency
             [
               (1, float_range 0.0 2.0);
               (1, float_range 0.0 (last +. (2.0 *. bin)));
               (1, map (fun d -> last +. d) (float_range 0.0 (2.0 *. bin)));
             ]
           >|= fun until -> (bin, until)
         in
         triple
           (list_size (int_range 1 8) (gen_window acks))
           gen_series (float_range 0.0 100.0)
         >|= fun (windows, series, p) -> (acks, windows, series, p)))
    (fun (acks, windows, (bin, until), p) ->
      let st = Flow_stats.create () in
      List.iter
        (fun (now, size, rtt) -> Flow_stats.record_ack st ~now ~size ~rtt)
        acks;
      let same_arrays a b =
        Array.length a = Array.length b && Array.for_all2 same a b
      in
      let check_window (t0, t1) =
        let rtts = List_log.rtts acks ~t0 ~t1 in
        same_arrays (Flow_stats.rtt_samples st ~t0 ~t1) rtts
        && (match Flow_stats.rtt_percentile st ~t0 ~t1 ~p with
           | None -> Array.length rtts = 0
           | Some x ->
               Array.length rtts > 0
               && same x (Descriptive.percentile rtts ~p))
        &&
        if t1 <= t0 then
          (try
             ignore (Flow_stats.bytes_acked_window st ~t0 ~t1);
             false
           with Invalid_argument _ -> true)
          &&
          try
            ignore (Flow_stats.throughput_mbps st ~t0 ~t1);
            false
          with Invalid_argument _ -> true
        else
          let bytes = List_log.bytes acks ~t0 ~t1 in
          same (Flow_stats.bytes_acked_window st ~t0 ~t1) bytes
          && same
               (Flow_stats.throughput_mbps st ~t0 ~t1)
               (Proteus_net.Units.bytes_per_sec_to_mbps (bytes /. (t1 -. t0)))
      in
      let series = Flow_stats.throughput_series st ~bin ~until in
      let expected = List_log.series acks ~bin ~until in
      let first, last =
        match acks with
        | [] -> (None, None)
        | (t, _, _) :: _ ->
            let l, _, _ = List.nth acks (List.length acks - 1) in
            (Some t, Some l)
      in
      let same_opt a b =
        match (a, b) with
        | None, None -> true
        | Some x, Some y -> same x y
        | _ -> false
      in
      (List.for_all check_window windows
      || QCheck.Test.fail_report "a windowed query differs")
      && (Array.length series = Array.length expected
          && Array.for_all2
               (fun (a, x) (b, y) -> same a b && same x y)
               series expected
         || QCheck.Test.fail_report "throughput_series differs")
      && same_opt (Flow_stats.first_ack_time st) first
      && same_opt (Flow_stats.last_ack_time st) last)

(* A record reused through [clear] answers every query as a fresh one
   filled with the same log: nothing of the first log (counts, losses,
   sizes off the MTU) survives into the second. *)
let prop_flow_stats_clear =
  QCheck.Test.make ~count:100
    ~name:"flow_stats clear then refill equals a fresh record"
    (QCheck.make
       ~print:(fun (first, acks, windows) ->
         Printf.sprintf "%d acks, cleared, %d acks, windows %s"
           (List.length first) (List.length acks)
           (String.concat " "
              (List.map (fun (a, b) -> Printf.sprintf "[%h,%h)" a b) windows)))
       QCheck.Gen.(
         pair gen_log gen_log >>= fun (first, acks) ->
         list_size (int_range 1 4) (gen_window acks) >|= fun windows ->
         (first, acks, windows)))
    (fun (first, acks, windows) ->
      let fill st =
        List.iteri
          (fun i (now, size, rtt) ->
            Flow_stats.record_sent st ~now ~size;
            if i mod 7 = 3 then Flow_stats.record_loss ~hop:(i mod 3) st ~size;
            if i mod 11 = 5 then Flow_stats.record_dup_ack st;
            Flow_stats.record_ack st ~now ~size ~rtt)
      in
      let observe st =
        let f = float_of_int in
        let window (t0, t1) =
          Array.to_list (Flow_stats.rtt_samples st ~t0 ~t1)
          @ [
              Option.value ~default:Float.nan
                (Flow_stats.rtt_percentile st ~t0 ~t1 ~p:50.0);
            ]
          @
          if t1 <= t0 then []
          else
            [
              Flow_stats.bytes_acked_window st ~t0 ~t1;
              Flow_stats.throughput_mbps st ~t0 ~t1;
            ]
        in
        [
          f (Flow_stats.packets_sent st);
          f (Flow_stats.packets_acked st);
          f (Flow_stats.packets_lost st);
          f (Flow_stats.packets_dup_acked st);
          Flow_stats.bytes_acked st;
          Flow_stats.loss_fraction st;
          Option.value ~default:Float.nan (Flow_stats.first_ack_time st);
          Option.value ~default:Float.nan (Flow_stats.last_ack_time st);
        ]
        @ List.map f (Array.to_list (Flow_stats.losses_by_hop st))
        @ List.concat_map window windows
        @ List.map snd
            (Array.to_list (Flow_stats.throughput_series st ~bin:0.1 ~until:2.5))
      in
      let reused = Flow_stats.create () in
      fill reused first;
      Flow_stats.clear reused;
      fill reused acks;
      let fresh = Flow_stats.create () in
      fill fresh acks;
      let a = observe reused and b = observe fresh in
      (List.length a = List.length b && List.for_all2 same a b)
      || QCheck.Test.fail_report "a query differs after clear")

(* ---------- windowed extremum filter vs a list window ---------- *)

(* Every sample not yet expired, oldest first. A sample expires at the
   first update whose cutoff [now - window] it falls below, and stays
   expired whatever the window does later. The extremum is the newest
   of the samples that tie for it (by [<=] / [>=], so -0.0 and 0.0
   tie), which is the one the deque keeps. *)
module List_window = struct
  type t = { max : bool; mutable window : float; mutable alive : (float * float) list }

  let create ~max ~window = { max; window; alive = [] }

  let update t ~now v =
    let cutoff = now -. t.window in
    t.alive <- List.filter (fun (time, _) -> not (time < cutoff)) t.alive @ [ (now, v) ]

  let get t =
    List.fold_left
      (fun acc (_, v) ->
        match acc with
        | Some b when not (if t.max then v >= b else v <= b) -> acc
        | _ -> Some v)
      None t.alive
end

type wf_op = Sample of float * float (* time step, value *) | Window of float

let print_wf_op = function
  | Sample (dt, v) -> Printf.sprintf "Sample (%h, %h)" dt v
  | Window w -> Printf.sprintf "Window %h" w

(* Ties (small integers), signed zeros, equal timestamps (zero steps),
   window changes between samples, steps and windows on a grid of
   quarters so that cutoffs fall exactly on sample times, and a
   per-case trend so that
   monotone runs grow the deque past its first 16 entries. NaN samples
   are outside the contract (a NaN is never dominated and never
   dominates) and are not generated. *)
let gen_wf_case =
  QCheck.Gen.(
    let gen_v =
      frequency
        [
          (3, map float_of_int (int_range 0 4));
          (1, oneofl [ 0.0; -0.0; infinity; neg_infinity ]);
          (3, float_range (-10.0) 10.0);
        ]
    in
    let gen_op =
      frequency
        [
          ( 8,
            map2
              (fun dt v -> Sample (dt, v))
              (frequency
                 [
                   (2, return 0.0);
                   (2, oneofl [ 0.25; 0.5; 1.0 ]);
                   (3, float_range 0.0 1.0);
                 ])
              gen_v );
          ( 1,
            map
              (fun w -> Window w)
              (frequency
                 [ (1, oneofl [ 0.0; 0.25; 1.0; 2.0 ]); (1, float_range 0.0 60.0) ])
          );
        ]
    in
    quad bool
      (frequency [ (1, oneofl [ 0.25; 2.0 ]); (2, float_range 0.0 60.0) ])
      (oneofl [ -1.0; 0.0; 1.0 ])
      (list_size (int_range 0 300) gen_op))

let prop_winfilter =
  QCheck.Test.make ~count:500
    ~name:"winfilter equals a list window bit for bit"
    (QCheck.make
       ~print:(fun (max, window, trend, ops) ->
         Printf.sprintf "max=%b window=%h trend=%g ops=[%s]" max window trend
           (String.concat "; " (List.map print_wf_op ops)))
       gen_wf_case)
    (fun (max, window, trend, ops) ->
      let f =
        if max then Winfilter.create_max ~window
        else Winfilter.create_min ~window
      in
      let o = List_window.create ~max ~window in
      let a = Array.make 4 0.0 in
      let now = ref 0.0 in
      let agree i =
        let g = Winfilter.get f in
        Winfilter.get_into f a 3;
        (match (g, List_window.get o) with
        | None, None -> true
        | Some x, Some y -> same x y
        | _ -> false)
        && same a.(3) (Option.value g ~default:Float.nan)
        && (Option.is_none g || same (Winfilter.get_exn f) (Option.get g))
        || QCheck.Test.fail_reportf "differs after op %d" i
      in
      agree (-1)
      && List.for_all Fun.id
           (List.mapi
              (fun i op ->
                (match op with
                | Sample (dt, v) ->
                    now := !now +. dt;
                    let v = v +. (trend *. float_of_int i) in
                    List_window.update o ~now:!now v;
                    (* Both entry points, on alternate samples. *)
                    if i land 1 = 0 then Winfilter.update f ~now:!now v
                    else begin
                      a.(0) <- !now;
                      a.(2) <- v;
                      Winfilter.update_from f a ~time:0 ~value:2
                    end
                | Window w ->
                    o.window <- w;
                    if i land 1 = 0 then Winfilter.set_window f w
                    else begin
                      a.(1) <- w;
                      Winfilter.set_window_from f a 1
                    end);
                agree i)
              ops))

(* ---------- BBR's send-record ring vs a Hashtbl model ---------- *)

module Seq_ring = Proteus_cc.Seq_ring

type ring_op =
  | Send (* add the next seq *)
  | Ack of int (* take the [k mod live]-th live seq *)
  | Lose of int (* remove it *)
  | Dup of int (* take a seq already taken or removed *)
  | Stray of int (* take or remove a seq near the front, live or not *)
  | Resend of int (* add a live seq again *)

let print_ring_op = function
  | Send -> "Send"
  | Ack k -> Printf.sprintf "Ack %d" k
  | Lose k -> Printf.sprintf "Lose %d" k
  | Dup k -> Printf.sprintf "Dup %d" k
  | Stray k -> Printf.sprintf "Stray %d" k
  | Resend k -> Printf.sprintf "Resend %d" k

(* Long send runs keep hundreds of seqs live, and the oldest live seq
   may be left unsettled for a whole case, so the ring must grow while
   entries are live and keep them through every rehash. *)
let gen_ring_ops =
  QCheck.Gen.(
    list_size (int_range 0 3000)
      (frequency
         [
           (6, return Send);
           (3, map (fun k -> Ack k) nat);
           (1, map (fun k -> Lose k) nat);
           (1, map (fun k -> Dup k) nat);
           (1, map (fun k -> Stray k) (int_range (-3) 40));
           (1, map (fun k -> Resend k) nat);
         ]))

let prop_seq_ring =
  QCheck.Test.make ~count:200
    ~name:"seq ring equals a Hashtbl model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_ring_op ops))
       gen_ring_ops)
    (fun ops ->
      let r = Seq_ring.create () in
      let model : (int, float) Hashtbl.t = Hashtbl.create 16 in
      (* The model's live seqs in an array (swap-removed), to pick one
         in O(1), and the seqs taken or removed so far. *)
      let live = Array.make (List.length ops + 1) 0 and nlive = ref 0 in
      let gone = ref [||] and ngone = ref 0 in
      let next = ref 0 and adds = ref 0 in
      let a = Array.make 2 Float.nan in
      let forget seq =
        let i = ref 0 in
        while live.(!i) <> seq do incr i done;
        decr nlive;
        live.(!i) <- live.(!nlive);
        if !ngone = Array.length !gone then
          gone := Array.append !gone (Array.make (!ngone + 16) 0);
        !gone.(!ngone) <- seq;
        incr ngone
      in
      let add seq =
        (* A re-add records a new value, so a stale record shows. *)
        incr adds;
        let v = (float_of_int seq *. 1.5) +. (float_of_int !adds /. 8.0) in
        if not (Hashtbl.mem model seq) then begin
          live.(!nlive) <- seq;
          incr nlive
        end;
        Hashtbl.replace model seq v;
        a.(0) <- v;
        Seq_ring.add r seq a 0;
        true
      in
      let take seq =
        a.(1) <- Float.nan;
        let found = Seq_ring.take r seq a 1 in
        match Hashtbl.find_opt model seq with
        | Some x ->
            Hashtbl.remove model seq;
            forget seq;
            found && same a.(1) x
        | None -> (not found) && Float.is_nan a.(1)
      in
      let remove seq =
        Seq_ring.remove r seq;
        if Hashtbl.mem model seq then begin
          Hashtbl.remove model seq;
          forget seq
        end;
        not (Seq_ring.mem r seq)
      in
      let with_live k f = !nlive = 0 || f live.(k mod !nlive) in
      let all_live () =
        let ok = ref true in
        for i = 0 to !nlive - 1 do
          ok := !ok && Seq_ring.mem r live.(i)
        done;
        !ok
      in
      let step i op =
        (match op with
        | Send ->
            ignore (add !next);
            incr next;
            true
        | Ack k -> with_live k take
        | Lose k -> with_live k remove
        | Dup k -> !ngone = 0 || take !gone.(k mod !ngone)
        | Stray k -> if k land 1 = 0 then take k else remove k
        | Resend k -> with_live k add)
        && (i land 63 <> 0 || all_live ())
        || QCheck.Test.fail_reportf "differs at op %d (%s)" i
             (print_ring_op op)
      in
      let steps_agree = List.for_all Fun.id (List.mapi step ops) in
      let cap = Seq_ring.capacity r in
      steps_agree && all_live ()
      && cap land (cap - 1) = 0
      && Array.for_all take (Array.sub live 0 !nlive)
      && !nlive = 0)

let suite =
  [ ("variance pins pow over multiplication", `Quick, test_pow_pin) ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_descriptive;
        prop_power_kernels;
        prop_fmax_fmin;
        prop_regression;
        prop_tolerance;
        prop_mi_reuse;
        prop_votes;
        prop_flow_stats;
        prop_flow_stats_clear;
        prop_winfilter;
        prop_seq_ring;
      ]
