module Rng = Proteus_stats.Rng

type t = {
  name : string;
  chunk_duration : float;
  bitrates_mbps : float array;
  n_chunks : int;
}

let duration t = float_of_int t.n_chunks *. t.chunk_duration
let max_bitrate t = t.bitrates_mbps.(Array.length t.bitrates_mbps - 1)

let chunk_bytes t ~bitrate_mbps =
  int_of_float
    (Proteus_net.Units.mbps_to_bytes_per_sec bitrate_mbps *. t.chunk_duration)

let jittered rng base = base *. (0.95 +. Rng.float rng 0.1)

let make ~rng ~name ~ladder =
  let bitrates_mbps = Array.map (jittered rng) ladder in
  (* At least 3 minutes of 3-second chunks. *)
  let n_chunks = 60 + Rng.int rng 21 in
  { name; chunk_duration = 3.0; bitrates_mbps; n_chunks }

let ladder_4k = [| 1.0; 2.5; 5.0; 8.0; 16.0; 25.0; 45.0 |]
let ladder_1080p = [| 0.6; 1.2; 2.5; 4.0; 5.5; 7.5; 10.5 |]

let make_4k ?(seed = 1) ~name () =
  make ~rng:(Rng.create ~seed) ~name ~ladder:ladder_4k

let make_1080p ?(seed = 1) ~name () =
  make ~rng:(Rng.create ~seed) ~name ~ladder:ladder_1080p

let corpus_4k ~n =
  List.init n (fun i ->
      make_4k ~seed:(100 + i) ~name:(Printf.sprintf "4k-%02d" i) ())

let make_custom ~name ~chunk_duration ~bitrates_mbps ~n_chunks =
  if Array.length bitrates_mbps = 0 then invalid_arg "Video.make_custom: ladder";
  Array.iteri
    (fun i b ->
      if i > 0 && b <= bitrates_mbps.(i - 1) then
        invalid_arg "Video.make_custom: ladder not ascending")
    bitrates_mbps;
  { name; chunk_duration; bitrates_mbps; n_chunks }

