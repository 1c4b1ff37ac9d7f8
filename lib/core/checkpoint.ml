(* Durable, crash-resilient snapshots.

   A checkpoint file is a small self-describing container:

     line 1   BVF-CHECKPOINT <format> <tag>\n     (ASCII header)
     line 2   <md5 hex of payload>\n             (integrity digest)
     rest     payload (marshalled OCaml value)

   The [tag] names the payload schema (e.g. "campaign/1") so a reader
   never unmarshals bytes written by a different producer or an older
   schema; the digest catches truncation and corruption from a crash
   mid-write.  Writes are atomic: the file is assembled at
   [path ^ ".tmp"], fsynced, then renamed over [path], so a campaign
   killed at any instant leaves either the previous checkpoint or the
   new one — never a torn file.  This is the standard
   write-leader-then-rename durability pattern of corpus databases in
   long-lived fuzzers (syzkaller's corpus.db, AFL's queue). *)

let magic = "BVF-CHECKPOINT"
let format_version = 1

type error =
  | Io of string                 (* open/read/write/rename failure *)
  | Bad_magic                    (* not a checkpoint file *)
  | Tag_mismatch of { expected : string; found : string }
  | Corrupt of string            (* digest mismatch, truncation, ... *)

let error_to_string = function
  | Io msg -> Printf.sprintf "i/o error: %s" msg
  | Bad_magic -> "not a BVF checkpoint file"
  | Tag_mismatch { expected; found } ->
    Printf.sprintf "checkpoint holds %S, expected %S" found expected
  | Corrupt msg -> Printf.sprintf "corrupt checkpoint: %s" msg

let valid_tag (tag : string) : bool =
  tag <> ""
  && String.for_all
       (fun c -> c <> ' ' && c <> '\n' && c <> '\r')
       tag

(* -- Writing ----------------------------------------------------------- *)

let save ~(path : string) ~(tag : string) (value : 'a) :
  (unit, error) result =
  if not (valid_tag tag) then
    invalid_arg "Checkpoint.save: tag must be non-empty and spaceless";
  let payload = Marshal.to_string value [] in
  let header =
    Printf.sprintf "%s %d %s\n%s\n" magic format_version tag
      (Digest.to_hex (Digest.string payload))
  in
  let tmp = path ^ ".tmp" in
  let fail msg =
    (if Sys.file_exists tmp then try Sys.remove tmp with Sys_error _ -> ());
    Error (Io msg)
  in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
         output_string oc header;
         output_string oc payload;
         flush oc;
         (* on disk before the rename publishes it: a machine crash
            leaves the old file or the whole new one *)
         Unix.fsync (Unix.descr_of_out_channel oc));
    (* write-then-rename: readers only ever observe complete files *)
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error msg -> fail msg
  | exception Unix.Unix_error (err, _, _) -> fail (Unix.error_message err)

(* -- Reading ----------------------------------------------------------- *)

let read_file (path : string) : (string, error) result =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> Ok contents
  | exception Sys_error msg -> Error (Io msg)
  | exception End_of_file -> Error (Corrupt "truncated while reading")

let load ~(path : string) ~(tag : string) : ('a, error) result =
  match read_file path with
  | Error _ as e -> e
  | Ok contents ->
    match String.index_opt contents '\n' with
    | None -> Error Bad_magic
    | Some nl1 ->
      let header = String.sub contents 0 nl1 in
      (match String.split_on_char ' ' header with
       | [ m; v; found_tag ] when m = magic ->
         if v <> string_of_int format_version then
           Error
             (Corrupt (Printf.sprintf "format version %s, expected %d" v
                         format_version))
         else if found_tag <> tag then
           Error (Tag_mismatch { expected = tag; found = found_tag })
         else begin
           match String.index_from_opt contents (nl1 + 1) '\n' with
           | None -> Error (Corrupt "missing digest line")
           | Some nl2 ->
             let digest = String.sub contents (nl1 + 1) (nl2 - nl1 - 1) in
             let payload =
               String.sub contents (nl2 + 1)
                 (String.length contents - nl2 - 1)
             in
             if Digest.to_hex (Digest.string payload) <> digest then
               Error (Corrupt "payload digest mismatch")
             else begin
               (* a digest collision or a file written by a different
                  build can still hand Marshal undecodable bytes; any
                  exception here is a corrupt file, never a crash *)
               match Marshal.from_string payload 0 with
               | v -> Ok v
               | exception e -> Error (Corrupt (Printexc.to_string e))
             end
         end
       | _ -> Error Bad_magic)
