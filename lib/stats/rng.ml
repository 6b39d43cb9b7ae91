(* A stream is its seed until its first draw: [Random.State.make] hashes
   the seed twice with MD5, and many streams (a loss-free link's, a
   sender that never randomises) are derived and never drawn from.
   [split] and [split_at] read only [seed] and [splits], so deriving a
   child never builds the parent's state either. The draws below are
   those of [Random.State.make [| seed |]] whenever it is built. They
   are [@inline]: the check makes them too large for ocamlopt to
   inline on its own, and a draw called out of line returns its float
   boxed, on every MI of a controller. *)
type t = {
  mutable state : Random.State.t option;  (* [None] until the first draw *)
  mutable splits : int;
  seed : int;
}

let create ~seed = { state = None; splits = 0; seed }

let[@inline never] seed_state t =
  let s = Random.State.make [| t.seed |] in
  t.state <- Some s;
  s

let[@inline] state t =
  match t.state with Some s -> s | None -> seed_state t

let split t =
  t.splits <- t.splits + 1;
  (* Mix the parent seed with the split index so child streams are stable
     under unrelated draws on the parent. *)
  create ~seed:(t.seed * 1_000_003 + (t.splits * 7919) + 17)

(* Keyed child streams: unlike [split], the derivation ignores the
   parent's split counter, so a task keyed [k] gets the same stream no
   matter how many siblings were derived before it — the property the
   fault-sweep harness relies on to stay bit-identical under `--jobs N`
   reordering of task setup. The multiplier differs from [split]'s so
   the two families cannot collide on small keys. *)
let split_at t ~key = create ~seed:(t.seed * 999_983 + (key * 6_700_417) + 29)

let[@inline] float t bound = Random.State.float (state t) bound
let[@inline] int t bound = Random.State.int (state t) bound
let[@inline] bool t = Random.State.bool (state t)
let[@inline] bernoulli t ~p = p > 0. && Random.State.float (state t) 1.0 < p
let[@inline] uniform t ~lo ~hi = lo +. Random.State.float (state t) (hi -. lo)

let[@inline] exponential t ~mean =
  let u = 1.0 -. Random.State.float (state t) 1.0 in
  -.mean *. log u

let[@inline] gaussian t ~mu ~sigma =
  let s = state t in
  let u1 = 1.0 -. Random.State.float s 1.0 in
  let u2 = Random.State.float s 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let[@inline] pareto t ~shape ~scale =
  let u = 1.0 -. Random.State.float (state t) 1.0 in
  scale /. (u ** (1.0 /. shape))
