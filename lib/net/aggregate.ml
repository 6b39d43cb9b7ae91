(* Fluid-flow aggregation tier: background traffic classes modelled as
   piecewise-constant rate envelopes instead of packets.

   A class offers bytes to its link at the envelope rate currently in
   effect; a responsiveness knob scales the class back TCP-like when
   the total offered rate exceeds the fluid share of the link capacity.
   The aggregate keeps one shared fluid backlog, integrated *exactly*
   over the piecewise-constant segments (the integrator splits every
   interval at envelope breakpoints and at backlog boundary crossings),
   so fluid byte conservation — bytes in = bytes out + bytes shed +
   backlog — holds to floating-point rounding at every sync point and
   can be audited continuously.

   The packet-level foreground sees the aggregate through two values
   refreshed at each link sync: [served_rate] (capacity the fluid tier
   is consuming, subtracted from the packet service rate) and
   [loss_prob] (congestion-loss probability while the fluid backlog is
   pinned at its buffer share and shedding). *)

(* Fluid service is capped at this share of link capacity so the
   packet-level foreground always retains a service floor. *)
let max_fluid_share = 0.95

type cls_spec = {
  s_label : string;
  s_flows : int;
  s_resp : float;
  s_env : (float * float) list; (* (from_time_s, rate_mbps), normalized *)
}

type cls = cls_spec

let cls_flows c = c.s_flows

let check_fin what v =
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Aggregate.cls: %s must be finite, got %g" what v)

let cls ?(flows = 1) ?(responsiveness = 0.0) ~label env =
  if flows <= 0 then
    invalid_arg
      (Printf.sprintf "Aggregate.cls: flows must be positive, got %d" flows);
  if not (responsiveness >= 0.0 && responsiveness <= 1.0) then
    invalid_arg
      (Printf.sprintf "Aggregate.cls: responsiveness must be in [0,1], got %g"
         responsiveness);
  if env = [] then
    invalid_arg "Aggregate.cls: an envelope needs at least one segment";
  List.iter
    (fun (t, r) ->
      check_fin "envelope time" t;
      check_fin "envelope rate" r;
      if t < 0.0 then
        invalid_arg
          (Printf.sprintf "Aggregate.cls: envelope time %g is negative" t);
      if r < 0.0 then
        invalid_arg
          (Printf.sprintf "Aggregate.cls: envelope rate %g is negative" r))
    env;
  let sorted = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) env in
  (* A first segment starting after t=0 gets an implicit leading
     silence, so every instant has a defined rate. *)
  let sorted =
    match sorted with
    | (t0, _) :: _ when t0 > 0.0 -> (0.0, 0.0) :: sorted
    | s -> s
  in
  { s_label = label; s_flows = flows; s_resp = responsiveness; s_env = sorted }

type cls_state = {
  c_label : string;
  c_flows : int;
  c_resp : float;
  c_times : float array; (* segment start times; c_times.(0) = 0 *)
  c_rates : float array; (* offered rate per segment, bytes/s *)
  mutable c_seg : int; (* segment in effect at the last sync *)
  (* c_acc.(0) = bytes in (post-backoff), c_acc.(1) = bytes shed. *)
  c_acc : float array;
}

type t = {
  classes : cls_state array;
  buffer_share : float;
  (* Unboxed mutable state (mutable floats in this record would box on
     every store): 0 = last sync time, 1 = fluid backlog bytes,
     2 = current served rate (bytes/s), 3 = current packet loss
     probability, 4 = total bytes in, 5 = total bytes out, 6 = total
     bytes shed. *)
  fl : float array;
  (* Per-class effective arrival rate scratch for the integrator. *)
  eff : float array;
}

let create ?(buffer_share = 0.5) specs =
  if not (buffer_share > 0.0 && buffer_share <= 1.0) then
    invalid_arg
      (Printf.sprintf "Aggregate.create: buffer_share must be in (0,1], got %g"
         buffer_share);
  if specs = [] then
    invalid_arg "Aggregate.create: at least one traffic class required";
  let classes =
    Array.of_list
      (List.map
         (fun s ->
           {
             c_label = s.s_label;
             c_flows = s.s_flows;
             c_resp = s.s_resp;
             c_times = Array.of_list (List.map fst s.s_env);
             c_rates =
               Array.of_list
                 (List.map (fun (_, r) -> Units.mbps_to_bytes_per_sec r) s.s_env);
             c_seg = 0;
             c_acc = Array.make 2 0.0;
           })
         specs)
  in
  {
    classes;
    buffer_share;
    fl = Array.make 7 0.0;
    eff = Array.make (Array.length classes) 0.0;
  }

let flows t =
  Array.fold_left (fun acc c -> acc + c.c_flows) 0 t.classes

let class_stats t i =
  let c = t.classes.(i) in
  (c.c_label, c.c_flows, c.c_acc.(0), c.c_acc.(1))

let served_rate t = t.fl.(2)
let loss_prob t = t.fl.(3)
let backlog t = t.fl.(1)
let totals t = (t.fl.(4), t.fl.(5), t.fl.(6), t.fl.(1))

(* Exact integration from the last sync time to [until] under the
   current [capacity] / [buffer]. Both may have changed since the last
   sync (impairment schedule); the link syncs the aggregate *before*
   applying each impairment, so each integration interval sees one
   consistent capacity. *)
let advance t ~until ~capacity ~buffer =
  let fl = t.fl in
  if until > fl.(0) then begin
    let cap_f = max_fluid_share *. capacity in
    let buf_f = t.buffer_share *. buffer in
    (* A buffer shrink can strand backlog above the new cap: the excess
       is shed at the shrink instant. *)
    if fl.(1) > buf_f then begin
      fl.(6) <- fl.(6) +. (fl.(1) -. buf_f);
      fl.(1) <- buf_f
    end;
    let classes = t.classes in
    let n = Array.length classes in
    let tcur = ref fl.(0) in
    while !tcur < until do
      (* Offered rate of the segments in effect at [tcur], and the
         earliest future envelope breakpoint. *)
      let lam_off = ref 0.0 in
      let next_bp = ref until in
      for i = 0 to n - 1 do
        let c = Array.unsafe_get classes i in
        let len = Array.length c.c_times in
        while c.c_seg + 1 < len && c.c_times.(c.c_seg + 1) <= !tcur do
          c.c_seg <- c.c_seg + 1
        done;
        lam_off := !lam_off +. c.c_rates.(c.c_seg);
        if c.c_seg + 1 < len && c.c_times.(c.c_seg + 1) < !next_bp then
          next_bp := c.c_times.(c.c_seg + 1)
      done;
      (* Responsive backoff: when the total offered rate exceeds the
         fluid capacity share, a class with responsiveness r yields the
         r-weighted part of its overshoot (r = 1 backs off to its fair
         scaled rate, r = 0 keeps pushing). Backed-off bytes never
         arrive, so they are invisible to conservation. *)
      let scale =
        if !lam_off > cap_f && !lam_off > 0.0 then cap_f /. !lam_off else 1.0
      in
      let lam_eff = ref 0.0 in
      for i = 0 to n - 1 do
        let c = Array.unsafe_get classes i in
        let li =
          c.c_rates.(c.c_seg) *. ((1.0 -. c.c_resp) +. (c.c_resp *. scale))
        in
        Array.unsafe_set t.eff i li;
        lam_eff := !lam_eff +. li
      done;
      let lam = !lam_eff in
      let bp = !next_bp in
      (* Integrate [tcur, bp] at constant rates, splitting at backlog
         boundary crossings (at most two regime changes). *)
      while !tcur < bp do
        let b = fl.(1) in
        if b <= 0.0 && lam <= cap_f then begin
          (* Pass-through: arrivals are served as they come. *)
          let dt = bp -. !tcur in
          for i = 0 to n - 1 do
            let c = Array.unsafe_get classes i in
            c.c_acc.(0) <- c.c_acc.(0) +. (Array.unsafe_get t.eff i *. dt)
          done;
          fl.(4) <- fl.(4) +. (lam *. dt);
          fl.(5) <- fl.(5) +. (lam *. dt);
          fl.(2) <- lam;
          fl.(3) <- 0.0;
          tcur := bp
        end
        else begin
          let growth = lam -. cap_f in
          if b >= buf_f && growth > 0.0 then begin
            (* Backlog pinned at the buffer share: shedding. *)
            let dt = bp -. !tcur in
            let inv = 1.0 /. lam in
            for i = 0 to n - 1 do
              let c = Array.unsafe_get classes i in
              let li = Array.unsafe_get t.eff i in
              c.c_acc.(0) <- c.c_acc.(0) +. (li *. dt);
              c.c_acc.(1) <- c.c_acc.(1) +. (growth *. dt *. (li *. inv))
            done;
            fl.(4) <- fl.(4) +. (lam *. dt);
            fl.(5) <- fl.(5) +. (cap_f *. dt);
            fl.(6) <- fl.(6) +. (growth *. dt);
            fl.(2) <- cap_f;
            fl.(3) <- growth /. lam;
            tcur := bp
          end
          else begin
            (* Backlog in motion (filling or draining) at full fluid
               service; stop at the boundary it hits, if any. *)
            let t_hit =
              if growth > 0.0 then !tcur +. ((buf_f -. b) /. growth)
              else if growth < 0.0 then !tcur +. (b /. -.growth)
              else infinity
            in
            let t_end = if t_hit < bp then t_hit else bp in
            let dt = t_end -. !tcur in
            for i = 0 to n - 1 do
              let c = Array.unsafe_get classes i in
              c.c_acc.(0) <- c.c_acc.(0) +. (Array.unsafe_get t.eff i *. dt)
            done;
            fl.(4) <- fl.(4) +. (lam *. dt);
            fl.(5) <- fl.(5) +. (cap_f *. dt);
            (if t_hit <= bp then
               (* Land exactly on the boundary so the regime switch is
                  clean and conservation has no drift term. *)
               fl.(1) <- (if growth > 0.0 then buf_f else 0.0)
             else begin
               let nb = b +. (growth *. dt) in
               fl.(1) <- (if nb > 0.0 then nb else 0.0)
             end);
            fl.(2) <- cap_f;
            fl.(3) <- 0.0;
            tcur := t_end
          end
        end
      done
    done;
    fl.(0) <- until
  end
