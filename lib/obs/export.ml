module Welford = Proteus_stats.Welford
module Histogram = Proteus_stats.Histogram

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.9g" v else "null"

(* ---------- trace ---------- *)

let write_trace_jsonl oc trace =
  Trace.iter trace ~f:(fun (e : Trace.event) ->
      Printf.fprintf oc "{\"t\":%.9f,\"kind\":\"%s\",\"flow\":%d,\"seq\":%d"
        e.time (Trace.kind_name e.kind) e.flow e.seq;
      Printf.fprintf oc ",\"a\":%s,\"b\":%s" (json_float e.a) (json_float e.b);
      if e.note <> "" then
        Printf.fprintf oc ",\"note\":\"%s\"" (json_escape e.note);
      output_string oc "}\n")

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let write_trace_csv oc trace =
  output_string oc "time,kind,flow,seq,a,b,note\n";
  Trace.iter trace ~f:(fun (e : Trace.event) ->
      Printf.fprintf oc "%.9f,%s,%d,%d,%.9g,%.9g,%s\n" e.time
        (Trace.kind_name e.kind) e.flow e.seq e.a e.b (csv_escape e.note))

let trace_to_file ~path trace =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      if Filename.check_suffix path ".csv" then write_trace_csv oc trace
      else write_trace_jsonl oc trace)

let warn_dropped ~label trace =
  let dropped = Trace.dropped trace in
  if dropped > 0 then
    Printf.eprintf
      "warning: %s: %d of %d trace events dropped by ring wraparound \
       (capacity %d); the export holds only the newest %d\n%!"
      label dropped (Trace.total_emitted trace) (Trace.capacity trace)
      (Trace.length trace)

(* ---------- metrics ---------- *)

let buf_welford buf w =
  Printf.bprintf buf "{\"n\": %d, \"mean\": %s, \"stddev\": %s" (Welford.n w)
    (json_float (Welford.mean w))
    (json_float (Welford.stddev w));
  if Welford.n w > 0 then
    Printf.bprintf buf ", \"min\": %s, \"max\": %s"
      (json_float (Welford.min w))
      (json_float (Welford.max w));
  Buffer.add_string buf "}"

let metrics_to_string m =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": \"pcc-proteus-metrics/1\",\n";
  Buffer.add_string buf "  \"entries\": [\n";
  let total = Metrics.cardinal m in
  let i = ref 0 in
  Metrics.iter m ~f:(fun entry ->
      Buffer.add_string buf "    ";
      (match entry with
      | Metrics.Counter c ->
          Printf.bprintf buf
            "{\"kind\": \"counter\", \"name\": \"%s\", \"value\": %d}"
            (json_escape (Metrics.counter_name c))
            (Metrics.counter_value c)
      | Metrics.Gauge g ->
          Printf.bprintf buf
            "{\"kind\": \"gauge\", \"name\": \"%s\", \"last\": %s, \"dist\": "
            (json_escape (Metrics.gauge_name g))
            (json_float (Metrics.gauge_last g));
          buf_welford buf (Metrics.gauge_stats g);
          Buffer.add_string buf "}"
      | Metrics.Hist h ->
          let hist = Metrics.hist_histogram h in
          Printf.bprintf buf
            "{\"kind\": \"histogram\", \"name\": \"%s\", \"lo\": %s, \"hi\": \
             %s, \"bins\": %d, \"counts\": [%s], \"dist\": "
            (json_escape (Metrics.hist_name h))
            (json_float (Histogram.lo hist))
            (json_float (Histogram.hi hist))
            (Histogram.bins hist)
            (String.concat ", "
               (Array.to_list (Array.map string_of_int (Histogram.counts hist))));
          buf_welford buf (Metrics.hist_summary h);
          Buffer.add_string buf "}");
      incr i;
      Buffer.add_string buf (if !i = total then "\n" else ",\n"));
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let write_metrics oc m = output_string oc (metrics_to_string m)

let metrics_to_file ~path m =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_metrics oc m)

(* ---------- re-import (round-trip checks) ---------- *)

(* Minimal parser for the histogram entries this module itself emits.
   Not a general JSON parser: it scans for the fields written by
   [write_metrics], which is enough for export/import round-trip tests
   and for small post-processing scripts. *)

let find_field s ~from field =
  let needle = Printf.sprintf "\"%s\":" field in
  let n = String.length s and k = String.length needle in
  let rec scan i =
    if i + k > n then None
    else if String.sub s i k = needle then Some (i + k)
    else scan (i + 1)
  in
  scan from

let parse_number s i =
  let n = String.length s in
  let rec skip i = if i < n && s.[i] = ' ' then skip (i + 1) else i in
  let start = skip i in
  let rec fin j =
    if
      j < n
      && (match s.[j] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    then fin (j + 1)
    else j
  in
  let stop = fin start in
  if stop = start then None
  else float_of_string_opt (String.sub s start (stop - start))

let parse_histogram ~name json =
  let needle = Printf.sprintf "\"name\": \"%s\"" (json_escape name) in
  let n = String.length json and k = String.length needle in
  let rec scan i =
    if i + k > n then None
    else if String.sub json i k = needle then Some i
    else scan (i + 1)
  in
  match scan 0 with
  | None -> None
  | Some at -> (
      let num field =
        Option.bind (find_field json ~from:at field) (parse_number json)
      in
      match (num "lo", num "hi", find_field json ~from:at "counts") with
      | Some lo, Some hi, Some ci ->
          let stop =
            match String.index_from_opt json ci ']' with
            | Some j -> j
            | None -> n
          in
          let start =
            match String.index_from_opt json ci '[' with
            | Some j -> j + 1
            | None -> ci
          in
          let counts =
            String.sub json start (stop - start)
            |> String.split_on_char ','
            |> List.filter_map (fun s -> int_of_string_opt (String.trim s))
            |> Array.of_list
          in
          Some (lo, hi, counts)
      | _ -> None)
