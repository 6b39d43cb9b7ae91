let read_file path =
  try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
  with Sys_error _ -> None

(* Resolve a symbolic ref through loose refs first, then packed-refs. *)
let resolve_ref git_dir name =
  match read_file (Filename.concat git_dir name) with
  | Some sha -> Some sha
  | None -> (
      match read_file (Filename.concat git_dir "packed-refs") with
      | None -> None
      | Some packed ->
          String.split_on_char '\n' packed
          |> List.find_map (fun line ->
                 match String.index_opt line ' ' with
                 | Some i when String.sub line (i + 1) (String.length line - i - 1) = name
                   ->
                     Some (String.sub line 0 i)
                 | _ -> None))

let rec find_git_dir dir depth =
  if depth > 6 then None
  else
    let candidate = Filename.concat dir ".git" in
    if Sys.file_exists candidate then Some candidate
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find_git_dir parent (depth + 1)

let code_version () =
  match Sys.getenv_opt "PROTEUS_GIT_SHA" with
  | Some s when s <> "" -> s
  | _ -> (
      match find_git_dir (Sys.getcwd ()) 0 with
      | None -> "unknown"
      | Some git_dir -> (
          match read_file (Filename.concat git_dir "HEAD") with
          | Some head when String.length head > 5 && String.sub head 0 5 = "ref: "
            -> (
              let name = String.sub head 5 (String.length head - 5) in
              match resolve_ref git_dir name with
              | Some sha -> sha
              | None -> "unknown")
          | Some sha -> sha
          | None -> "unknown"))

let to_string ~run ?seed ?scenario ?(params = []) ?(metrics = [])
    ?registry () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"schema\": \"pcc-proteus-manifest/1\",\n";
  Printf.bprintf buf "  \"run\": \"%s\",\n" (Export.json_escape run);
  Printf.bprintf buf "  \"code_version\": \"%s\",\n"
    (Export.json_escape (code_version ()));
  (match seed with
  | Some s -> Printf.bprintf buf "  \"seed\": %d,\n" s
  | None -> Buffer.add_string buf "  \"seed\": null,\n");
  (match scenario with
  | Some s -> Printf.bprintf buf "  \"scenario\": \"%s\",\n" (Export.json_escape s)
  | None -> ());
  Buffer.add_string buf "  \"params\": {";
  List.iteri
    (fun i (k, v) ->
      Printf.bprintf buf "%s\"%s\": \"%s\""
        (if i = 0 then "" else ", ")
        (Export.json_escape k) (Export.json_escape v))
    params;
  Buffer.add_string buf "},\n";
  Buffer.add_string buf "  \"metrics\": {";
  List.iteri
    (fun i (k, v) ->
      Printf.bprintf buf "%s\"%s\": %s"
        (if i = 0 then "" else ", ")
        (Export.json_escape k) (Export.json_float v))
    metrics;
  Buffer.add_string buf "}";
  (match registry with
  | Some m ->
      Buffer.add_string buf ",\n  \"registry\": ";
      let body = Export.metrics_to_string m in
      (* Indent the nested document two spaces for readability. *)
      String.split_on_char '\n' (String.trim body)
      |> List.mapi (fun i line -> if i = 0 then line else "  " ^ line)
      |> String.concat "\n" |> Buffer.add_string buf
  | None -> ());
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

let write ~path ~run ?seed ?scenario ?params ?metrics ?registry () =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (to_string ~run ?seed ?scenario ?params ?metrics ?registry ()))
