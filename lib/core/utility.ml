type params = {
  exponent : float;
  latency_coeff : float;
  loss_coeff : float;
  deviation_coeff : float;
}

let default_params =
  { exponent = 0.9; latency_coeff = 900.0; loss_coeff = 11.35;
    deviation_coeff = 1500.0 }

type t = { name : string; eval : Mi.metrics -> float }

module Trace = Proteus_obs.Trace

let name t = t.name

let eval ?(trace = Trace.disabled) ?(now = 0.0) ?(flow = -1) t m =
  let u = t.eval m in
  if Trace.enabled trace then
    Trace.emit trace ~time:now ~kind:Trace.Utility_sample ~flow ~seq:0
      ~a:u ~b:m.Mi.send_rate_mbps ~note:t.name;
  u

let make ~name eval = { name; eval }

let[@inline] rate_term p (m : Mi.metrics) = m.Mi.send_rate_mbps ** p.exponent

let[@inline] loss_term p (m : Mi.metrics) =
  p.loss_coeff *. m.Mi.send_rate_mbps *. m.Mi.loss_rate

let allegro ?(alpha = 100.0) () =
  let sigmoid y = 1.0 /. (1.0 +. exp (alpha *. y)) in
  let eval (m : Mi.metrics) =
    let x = m.Mi.send_rate_mbps in
    let l = m.Mi.loss_rate in
    (x *. (1.0 -. l) *. sigmoid (l -. 0.05)) -. (x *. l)
  in
  { name = "allegro"; eval }

let vivace ?(params = default_params) () =
  let eval (m : Mi.metrics) =
    rate_term params m
    -. (params.latency_coeff *. m.Mi.send_rate_mbps *. m.Mi.rtt_gradient)
    -. loss_term params m
  in
  { name = "vivace"; eval }

let proportional ?(params = default_params) ~weight () =
  if weight <= 0.0 then invalid_arg "Utility.proportional: weight";
  (* Loss-based only, like the proportional-allocation design in the
     Vivace paper that §2.2 critiques: smaller weight = harsher loss
     penalty = proportionally smaller share *against loss-based
     competitors*. Having no latency term is exactly why it still
     dominates latency-sensitive senders. *)
  let eval (m : Mi.metrics) =
    rate_term params m
    -. (params.loss_coeff /. weight *. m.Mi.send_rate_mbps *. m.Mi.loss_rate)
  in
  { name = Printf.sprintf "proportional-%g" weight; eval }

let[@inline] proteus_p_eval params (m : Mi.metrics) =
  rate_term params m
  -. (params.latency_coeff *. m.Mi.send_rate_mbps
      *. Float.max 0.0 m.Mi.rtt_gradient)
  -. loss_term params m

let proteus_p ?(params = default_params) () =
  { name = "proteus-p"; eval = proteus_p_eval params }

let proteus_s_eval params (m : Mi.metrics) =
  proteus_p_eval params m
  -. (params.deviation_coeff *. m.Mi.send_rate_mbps *. m.Mi.rtt_deviation)

let proteus_s ?(params = default_params) () =
  { name = "proteus-s"; eval = proteus_s_eval params }

let proteus_h ?(params = default_params) ~threshold_mbps () =
  let eval (m : Mi.metrics) =
    if m.Mi.send_rate_mbps < !threshold_mbps then proteus_p_eval params m
    else proteus_s_eval params m
  in
  { name = "proteus-h"; eval }
