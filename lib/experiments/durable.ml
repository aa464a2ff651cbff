(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

(* IEEE CRC32 (reflected polynomial 0xedb88320), table-driven; plain OCaml
   integer arithmetic — the value always fits in 32 bits. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

let frame payload =
  Printf.sprintf "%08x\t%d\t%s" (crc32 payload) (String.length payload)
    payload

(* Check the declared length first (truncation), then the CRC (bit
   flips), and only then hand the payload on. *)
let unframe line =
  match String.index_opt line '\t' with
  | None -> Error "missing CRC field"
  | Some i -> (
      match String.index_from_opt line (i + 1) '\t' with
      | None -> Error "missing length field"
      | Some j -> (
          let crc_s = String.sub line 0 i in
          let len_s = String.sub line (i + 1) (j - i - 1) in
          let payload =
            String.sub line (j + 1) (String.length line - j - 1)
          in
          match
            ( (if String.length crc_s = 8 then
                 int_of_string_opt ("0x" ^ crc_s)
               else None),
              int_of_string_opt len_s )
          with
          | Some crc, Some len ->
              if String.length payload <> len then
                Error
                  (Printf.sprintf
                     "length mismatch (declared %d bytes, found %d)" len
                     (String.length payload))
              else if crc32 payload <> crc then
                Error
                  (Printf.sprintf "CRC mismatch (declared %08x, computed %08x)"
                     crc (crc32 payload))
              else Ok payload
          | _ -> Error "unparseable CRC/length header"))

let framed ?(header = "") payloads =
  let buf = Buffer.create 256 in
  Buffer.add_string buf header;
  List.iter
    (fun p ->
      Buffer.add_string buf (frame p);
      Buffer.add_char buf '\n')
    payloads;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

(* The temp file is fsynced before the rename (otherwise a power failure
   can publish a name whose bytes never reached the disk) and the parent
   directory after it (the rename itself is a directory-entry update). *)
let replace path content =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let fd =
    Sysx.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (try
     Sysx.write_all fd (Bytes.unsafe_of_string content);
     Sysx.fsync fd;
     Sysx.close fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Unix.unlink tmp with Unix.Unix_error _ -> ());
     raise e);
  (try Sysx.rename tmp path
   with e ->
     (try Unix.unlink tmp with Unix.Unix_error _ -> ());
     raise e);
  Sysx.fsync_dir (Filename.dirname path)

let append_framed ?header fd payloads =
  Sysx.write_all fd (Bytes.unsafe_of_string (framed ?header payloads))

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

(* One byte of slack past the size [fstat] reported lets the EOF read
   land without growing the buffer; a file that grows meanwhile (an
   appender) doubles it. *)
let read_all fd =
  let rec go buf off =
    if off = Bytes.length buf then
      go (Bytes.extend buf 0 (Bytes.length buf)) off
    else
      match Sysx.read fd buf off (Bytes.length buf - off) with
      | 0 -> Bytes.sub_string buf 0 off
      | r -> go buf (off + r)
  in
  go (Bytes.create ((Unix.fstat fd).Unix.st_size + 1)) 0

let read path =
  let fd = Sysx.openfile path [ Unix.O_RDONLY ] 0 in
  let s =
    Fun.protect
      ~finally:(fun () -> try Sysx.close fd with Unix.Unix_error _ -> ())
      (fun () -> read_all fd)
  in
  match String.split_on_char '\n' s with
  | [ "" ] -> None
  | header :: rest ->
      (* the empty string after a final newline is not a line *)
      let[@tail_mod_cons] rec number k = function
        | [] | [ "" ] -> []
        | line :: rest -> (k, line) :: number (k + 1) rest
      in
      Some (header, number 2 rest)
  | [] -> assert false (* split_on_char never returns [] *)

(* ------------------------------------------------------------------ *)
(* Stale temps                                                         *)
(* ------------------------------------------------------------------ *)

(* [<name>.<pid>.tmp] -> (name, pid), for names following [replace]'s
   temp naming rule. *)
let tmp_owner file =
  if not (Filename.check_suffix file ".tmp") then None
  else
    let base = Filename.chop_suffix file ".tmp" in
    match String.rindex_opt base '.' with
    | Some i when i > 0 -> (
        match
          int_of_string_opt
            (String.sub base (i + 1) (String.length base - i - 1))
        with
        | Some pid when pid > 0 -> Some (String.sub base 0 i, pid)
        | _ -> None)
    | _ -> None

let dead pid =
  match Unix.kill pid 0 with
  | () -> false
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
  (* EPERM: the pid exists but belongs to someone else — never sweep a
     file we cannot prove orphaned *)
  | exception Unix.Unix_error _ -> false

let sweep_tmps ?incidents ?only dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | files ->
      Array.fold_left
        (fun swept file ->
          match tmp_owner file with
          | Some (name, pid)
            when (match only with None -> true | Some o -> o = name)
                 && dead pid -> (
              let path = Filename.concat dir file in
              match Sysx.unlink path with
              | () ->
                  Option.iter
                    (fun log ->
                      Incident_log.record log
                        (Incident_log.Stale_tmp_swept { path; owner = pid }))
                    incidents;
                  swept + 1
              | exception Unix.Unix_error _ -> swept)
          | _ -> swept)
        0 files
