type env = {
  rng : Proteus_stats.Rng.t;
  mtu : int;
  trace : Proteus_obs.Trace.t;
  hops : int;
  flow : int;
}

let make_env ?(trace = Proteus_obs.Trace.disabled) ?(hops = 1) ~rng ~mtu () =
  if hops < 1 then invalid_arg "Sender.make_env: hops must be at least 1";
  { rng; mtu; trace; hops; flow = -1 }

(* One call protocol. Calls through a first-class module box every
   float argument and result (no flambda), so every entry point carries
   its floats in a caller-owned scratch array, [meta], read and written
   unboxed. sender.mli documents the slot layout. *)
module type S = sig
  type t

  val name : t -> string
  val next_send_m : t -> meta:float array -> unit
  val on_sent_m : t -> meta:float array -> seq:int -> size:int -> unit
  val on_ack_m : t -> meta:float array -> seq:int -> size:int -> unit
  val on_loss_m : t -> meta:float array -> seq:int -> size:int -> unit
end

(* Exists only for perfbench's timing wrapper, which still declares the
   float-argument calls beside the meta ones. Delete it (and
   [pack_meta]) once that wrapper implements [S] alone. *)
module type S_meta = sig
  include S

  val next_send : t -> now:float -> float
  val on_sent : t -> now:float -> seq:int -> size:int -> unit

  val on_ack :
    t -> now:float -> seq:int -> send_time:float -> size:int -> rtt:float -> unit

  val on_loss : t -> now:float -> seq:int -> send_time:float -> size:int -> unit
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed

let pack (type a) (module M : S with type t = a) (v : a) =
  Packed ((module M), v)

(* Only for perfbench's timing wrapper; see [S_meta]. *)
let pack_meta (type a) (module M : S_meta with type t = a) (v : a) =
  pack (module M) v

let name (Packed ((module M), v)) = M.name v
let[@inline] next_send_m (Packed ((module M), v)) ~meta = M.next_send_m v ~meta

let[@inline] on_sent_m (Packed ((module M), v)) ~meta ~seq ~size =
  M.on_sent_m v ~meta ~seq ~size

let[@inline] on_ack_m (Packed ((module M), v)) ~meta ~seq ~size =
  M.on_ack_m v ~meta ~seq ~size

let[@inline] on_loss_m (Packed ((module M), v)) ~meta ~seq ~size =
  M.on_loss_m v ~meta ~seq ~size

(* Float-argument calls for tests and tools. Each fills a fresh 4-slot
   scratch, so they are domain-safe and carry no runner signals. *)
let next_send s ~now =
  let meta = [| now; 0.0; 0.0; 0.0 |] in
  next_send_m s ~meta;
  meta.(3)

let on_sent s ~now ~seq ~size =
  on_sent_m s ~meta:[| now; 0.0; 0.0; 0.0 |] ~seq ~size

let on_ack s ~now ~seq ~send_time ~size ~rtt =
  on_ack_m s ~meta:[| now; send_time; rtt; 0.0 |] ~seq ~size

let on_loss s ~now ~seq ~send_time ~size =
  on_loss_m s ~meta:[| now; send_time; 0.0; 0.0 |] ~seq ~size

type factory = env -> packed
