(* CUBIC as a datapath fold program + control handler. The per-ACK
   window growth (slow start, cubic epoch) is the fold; the
   multiplicative decrease lives in the control handler, reached
   through an On_loss report. test_datapath pins its flow digests as
   golden strings. *)

module Dp = Proteus.Datapath

let beta = 0.7
let c = 0.4
let initial_cwnd = 10.0
let min_cwnd = 2.0

(* Register layout. *)
let r_cwnd = 0
let r_ssthresh = 1
let r_w_max = 2
let r_epoch = 3 (* NaN = no epoch in progress *)
let r_k = 4
let r_srtt = 5
let r_last_red = 6

let register_names =
  [ "cwnd"; "ssthresh"; "w_max"; "epoch_start"; "k"; "srtt"; "last_reduction" ]

let i_rtt = Dp.signal_index Dp.Rtt_sample
let i_now = Dp.signal_index Dp.Now

(* Branch-only [Float.max]: the stdlib's calls the C [caml_signbit]
   whenever its first comparison fails. Equal to it on every input,
   signed zeros and NaN included. Local and inlined, like every float
   helper on the per-ACK path: across a module boundary the dev
   profile's [-opaque] would box its arguments. *)
let[@inline] fmax (a : float) b =
  if a > b then a
  else if b > a then b
  else if a = b then (if a = 0.0 then a +. b else a)
  else Float.max a b

(* [x ** 3.0] bit for bit, mostly without the libm call (DESIGN §2b).
   Veltkamp's split and Dekker's product give x³ = q + e2 + e1·x
   exactly, with q = fl(fl(x·x)·x); [r] holds e2 + e1·x to about
   2^-104 |x³|, and [y] is q + r rounded once, so [y] is the correctly
   rounded cube unless x³ lies within a hair of a rounding midpoint.
   glibc documents [pow]'s worst-case error as 0.54 ulp, so [pow]
   itself returns the correctly rounded value whenever the exact result
   lies more than 0.04 ulp from a midpoint. [e] is the exact distance
   from q + r to [y]; [y +. 1.125 *. e = y] holds only when
   |e| <= (half the spacing on e's side) / 1.125, that is, when q + r
   lies at least 1/18 ulp (0.056) from every midpoint. Otherwise, and
   outside 2^-300 < |x| < 2^300, where an error term could leave the
   normal range, the kernel calls [**]. About one call in nine falls
   back. *)
let veltkamp = 134217729.0 (* 2^27 + 1 *)

let[@inline] cube x =
  let a = Float.abs x in
  if a > 0x1p-300 && a < 0x1p300 then begin
    let t = veltkamp *. x in
    let xh = t -. (t -. x) in
    let xl = x -. xh in
    let p = x *. x in
    let e1 = (((xh *. xh) -. p) +. (2.0 *. xh *. xl)) +. (xl *. xl) in
    let t = veltkamp *. p in
    let ph = t -. (t -. p) in
    let pl = p -. ph in
    let q = p *. x in
    let e2 =
      ((((ph *. xh) -. q) +. (ph *. xl)) +. (pl *. xh)) +. (pl *. xl)
    in
    let r = e2 +. (e1 *. x) in
    let y = q +. r in
    let e = r -. (y -. q) in
    if y +. (1.125 *. e) = y then y else x ** 3.0
  end
  else x ** 3.0

(* The adapter owns inflight: it decrements it before this fold runs. *)
let on_ack regs sigs =
  regs.(r_srtt) <- (0.875 *. regs.(r_srtt)) +. (0.125 *. sigs.(i_rtt));
  if regs.(r_cwnd) < regs.(r_ssthresh) then
    regs.(r_cwnd) <- regs.(r_cwnd) +. 1.0
  else begin
    let now = sigs.(i_now) in
    let epoch =
      if not (Float.is_nan regs.(r_epoch)) then regs.(r_epoch)
      else begin
        regs.(r_epoch) <- now;
        if regs.(r_w_max) <= regs.(r_cwnd) then begin
          regs.(r_w_max) <- regs.(r_cwnd);
          regs.(r_k) <- 0.0
        end
        else regs.(r_k) <- Float.cbrt (regs.(r_w_max) *. (1.0 -. beta) /. c);
        now
      end
    in
    (* W_cubic(t) = C (t - K)^3 + W_max, with the TCP-friendly lower
       bound. *)
    let elapsed = now -. epoch +. regs.(r_srtt) in
    let w_cubic = (c *. cube (elapsed -. regs.(r_k))) +. regs.(r_w_max) in
    let w_est =
      (regs.(r_w_max) *. beta)
      +. (3.0 *. (1.0 -. beta) /. (1.0 +. beta) *. (elapsed /. regs.(r_srtt)))
    in
    let target = fmax w_cubic w_est in
    if target > regs.(r_cwnd) then
      regs.(r_cwnd) <- regs.(r_cwnd) +. ((target -. regs.(r_cwnd)) /. regs.(r_cwnd))
    else regs.(r_cwnd) <- regs.(r_cwnd) +. (0.01 /. regs.(r_cwnd))
  end

(* Register records are immutable and the adapter copies their initial
   values into each flow's own register file, so every flow shares one
   declaration array. *)
let registers =
  Array.of_list
    (List.map2 Dp.reg register_names
       [ initial_cwnd; infinity; 0.0; Float.nan; 0.0; 0.1; neg_infinity ])

let program (_ : Proteus_net.Sender.env) =
  {
    Dp.p_name = "cubic";
    p_regs = registers;
    p_cwnd = r_cwnd;
    p_on_ack = on_ack;
    p_triggers = [| Dp.On_loss |];
  }

(* One multiplicative decrease per srtt (later losses of the same
   window event are absorbed), fast convergence, epoch reset. Interval
   reports are observability-only for CUBIC, so scenario-level
   (interval T) overrides stay behaviour-neutral. *)
let handler (rep : Dp.report) =
  match rep.Dp.rp_cause with
  | Dp.Loss_event ->
      let regs = rep.Dp.rp_regs in
      let now = rep.Dp.rp_time in
      if now -. regs.(r_last_red) > regs.(r_srtt) then begin
        regs.(r_last_red) <- now;
        (* Fast convergence: release bandwidth faster when W_max
           shrinks. *)
        if regs.(r_cwnd) < regs.(r_w_max) then
          regs.(r_w_max) <- regs.(r_cwnd) *. (2.0 -. beta) /. 2.0
        else regs.(r_w_max) <- regs.(r_cwnd);
        regs.(r_cwnd) <- fmax min_cwnd (regs.(r_cwnd) *. beta);
        regs.(r_ssthresh) <- fmax min_cwnd regs.(r_cwnd);
        regs.(r_epoch) <- Float.nan
      end
  | Dp.Interval -> ()

let factory ?interval ?consts () : Proteus_net.Sender.factory =
  Dp.to_factory
    ~program:(fun env -> Dp.with_overrides ?interval ?consts (program env))
    ~handler
