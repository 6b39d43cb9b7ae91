(** DASH video descriptions (the emulated corpus of §6.3).

    The paper generates 10 4K and 10 1080p videos, 3-second chunks, at
    least 3 minutes long, with top bitrates above 40 and 10 Mbps
    respectively. *)

type t = {
  name : string;
  chunk_duration : float;  (** Seconds of playback per chunk. *)
  bitrates_mbps : float array;  (** Ascending bitrate ladder. *)
  n_chunks : int;
}

val duration : t -> float
val max_bitrate : t -> float

val chunk_bytes : t -> bitrate_mbps:float -> int
(** Size of one chunk encoded at the given bitrate. *)

val make_4k : ?seed:int -> name:string -> unit -> t
(** A 4K video: ladder topping above 40 Mbps, 3 s chunks, ~3 min
    (the seed jitters per-title ladder and length slightly, like a real
    corpus). *)

val make_1080p : ?seed:int -> name:string -> unit -> t
(** A 1080p video: ladder topping at ~10 Mbps. *)

val corpus_4k : n:int -> t list

val make_custom :
  name:string -> chunk_duration:float -> bitrates_mbps:float array ->
  n_chunks:int -> t
(** Arbitrary ladder (e.g. the Big-Buck-Bunny-style corpus of the
    Fig. 11a benchmark). The ladder must be ascending and nonempty. *)
