(* corrupt_check: corruption-injection smoke test for checkpoint v2.

   Writes a real checkpoint through the public API, then damages it the
   three ways storage and crashes damage files — a flipped bit mid-file, a
   truncated final record, a duplicated record — and asserts the loader
   recovers the maximal valid set of records while reporting exactly what
   was lost.  Also covers the v1 reading path: malformed v1 lines (which
   the v1 loader dropped silently) are surfaced, and resuming a v1 file
   migrates it to v2 atomically.  Exit code 0 iff every check passes — CI
   runs this alongside chaos_check as the robustness gate.

     dune exec tools/corrupt_check.exe *)

open Ncg_core
open Ncg_experiments

let failures = ref 0

let check name ok =
  Printf.printf "  [%s] %s\n" (if ok then "PASS" else "FAIL") name;
  if not ok then incr failures

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let fingerprint = "corrupt-check ns=9 trials=4 seed=7"

let sample_outcomes =
  [
    ("k=2 max cost|n=9", 0,
     Stats.of_verdict (Stats.Finished { reason = Engine.Converged; steps = 17 }));
    ("k=2 max cost|n=9", 1,
     Stats.of_verdict ~attempts:3 ~quarantined:true
       (Stats.Crashed { exn = "Failure(\"boom\")"; backtrace = "frame 0\nframe 1" }));
    ("k=2 max cost|n=9", 2,
     Stats.of_verdict ~attempts:2
       (Stats.Finished { reason = Engine.Time_limit; steps = 400 }));
    ("k=3 random|n=9", 0,
     Stats.of_verdict ~degraded:true
       (Stats.Finished { reason = Engine.Converged; steps = 23 }));
    ("k=3 random|n=9", 1,
     Stats.of_verdict
       (Stats.Finished
          {
            reason =
              Engine.Invariant_violation
                {
                  Audit.kind = Audit.Happy_agent_selected;
                  step = 5;
                  subject = Some 3;
                  detail = "detail with\ttab and\nnewline";
                };
            steps = 5;
          }));
  ]

let fresh_checkpoint path =
  (try Sys.remove path with Sys_error _ -> ());
  let cp = Checkpoint.open_ ~fingerprint path in
  List.iter
    (fun (key, trial, outcome) -> Checkpoint.record cp ~key ~trial outcome)
    sample_outcomes;
  Checkpoint.close cp;
  path

let reopen path =
  let cp = Checkpoint.open_ ~resume:true ~fingerprint path in
  let report = Checkpoint.load_report cp in
  let recovered =
    List.concat_map
      (fun key ->
        List.map
          (fun (trial, o) -> (key, trial, o))
          (Checkpoint.completed cp ~key))
      [ "k=2 max cost|n=9"; "k=3 random|n=9" ]
  in
  Checkpoint.close cp;
  (report, recovered)

let roundtrip () =
  print_endline "round trip:";
  let path = Filename.temp_file "ncg_corrupt" ".ckpt" in
  let _ = fresh_checkpoint path in
  check "no temp residue after atomic header write"
    (not (Sys.file_exists (Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()))));
  let report, recovered = reopen path in
  check "all records load" (List.length recovered = 5);
  check "no corruption reported" (report.Checkpoint.corrupted = []);
  check "retry metadata survives"
    (List.for_all
       (fun (key, trial, o) ->
         List.exists (fun (k, t, o') -> k = key && t = trial && o = o')
           recovered)
       sample_outcomes);
  Sys.remove path

let bit_flip () =
  print_endline "bit flip mid-file:";
  let path = fresh_checkpoint (Filename.temp_file "ncg_corrupt" ".ckpt") in
  let contents = read_file path in
  let lines = String.split_on_char '\n' contents in
  (* damage record line 3 (header is line 1): flip one payload bit *)
  let damaged =
    List.mapi
      (fun i line ->
        if i <> 2 then line
        else begin
          let b = Bytes.of_string line in
          (* last byte of the line is always payload, never framing *)
          let j = Bytes.length b - 1 in
          Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lxor 0x01));
          Bytes.to_string b
        end)
      lines
  in
  write_file path (String.concat "\n" damaged);
  let report, recovered = reopen path in
  check "four of five records recovered" (List.length recovered = 4);
  check "exactly one corrupt line reported"
    (List.length report.Checkpoint.corrupted = 1);
  check "the corrupt line is line 3, not the tail"
    (match report.Checkpoint.corrupted with
    | [ c ] -> c.Checkpoint.line = 3 && not c.Checkpoint.tail
    | _ -> false);
  check "the failure is a CRC mismatch"
    (match report.Checkpoint.corrupted with
    | [ c ] ->
        String.length c.Checkpoint.reason >= 3
        && String.sub c.Checkpoint.reason 0 3 = "CRC"
    | _ -> false);
  Sys.remove path

let truncation () =
  print_endline "truncated tail:";
  let path = fresh_checkpoint (Filename.temp_file "ncg_corrupt" ".ckpt") in
  let contents = read_file path in
  (* cut mid-way through the final record — the canonical crash artifact *)
  write_file path (String.sub contents 0 (String.length contents - 7));
  let report, recovered = reopen path in
  check "maximal valid prefix recovered" (List.length recovered = 4);
  check "the torn line is flagged as the tail"
    (match report.Checkpoint.corrupted with
    | [ c ] -> c.Checkpoint.tail
    | _ -> false);
  check "the failure is a length mismatch"
    (match report.Checkpoint.corrupted with
    | [ c ] ->
        String.length c.Checkpoint.reason >= 6
        && String.sub c.Checkpoint.reason 0 6 = "length"
    | _ -> false);
  Sys.remove path

let duplicate () =
  print_endline "duplicate records:";
  let path = fresh_checkpoint (Filename.temp_file "ncg_corrupt" ".ckpt") in
  (* a resume that re-records an already-checkpointed trial is legal;
     the later record must win *)
  let cp = Checkpoint.open_ ~resume:true ~fingerprint path in
  let supersede =
    Stats.of_verdict ~attempts:2
      (Stats.Finished { reason = Engine.Converged; steps = 99 })
  in
  Checkpoint.record cp ~key:"k=2 max cost|n=9" ~trial:0 supersede;
  Checkpoint.close cp;
  let report, recovered = reopen path in
  check "one duplicate counted" (report.Checkpoint.duplicates = 1);
  check "six raw records seen" (report.Checkpoint.records = 6);
  check "five distinct trials loaded" (List.length recovered = 5);
  check "the later record wins"
    (List.exists
       (fun (k, t, o) -> k = "k=2 max cost|n=9" && t = 0 && o = supersede)
       recovered);
  check "duplicates are not corruption" (report.Checkpoint.corrupted = []);
  Sys.remove path

let v1_migration () =
  print_endline "v1 reading path and migration:";
  let path = Filename.temp_file "ncg_corrupt" ".ckpt" in
  (* a hand-written v1 file: three valid records, one malformed line (the
     v1 loader dropped it silently — the loader must now surface it) *)
  write_file path
    (String.concat "\n"
       [
         "# ncg-checkpoint v1\t" ^ String.escaped fingerprint;
         "k=2 max cost|n=9\t0\tok\t17";
         "k=2 max cost|n=9\t1\tcycle\t30\t12\t18";
         "k=2 max cost|n=9\tnot-a-trial\tok\t5";
         "k=3 random|n=9\t0\terror\tFailure(\"boom\")\tframe 0";
         "";
       ]);
  let report, recovered = reopen path in
  check "valid v1 records load with default retry metadata"
    (List.length recovered = 3
    && List.for_all
         (fun (_, _, o) ->
           o.Stats.attempts = 1
           && (not o.Stats.degraded)
           && not o.Stats.quarantined)
         recovered);
  check "the malformed v1 line is surfaced, not dropped"
    (match report.Checkpoint.corrupted with
    | [ c ] -> c.Checkpoint.line = 4 && not c.Checkpoint.tail
    | _ -> false);
  check "migration is reported" report.Checkpoint.migrated_from_v1;
  (* the resume rewrote the file as v2; a second resume must read it as
     v2, cleanly, with the same records *)
  let header = List.hd (String.split_on_char '\n' (read_file path)) in
  check "file is v2 after resume"
    (String.length header >= 19 && String.sub header 0 19 = "# ncg-checkpoint v2");
  let report2, recovered2 = reopen path in
  check "migrated file reloads cleanly"
    (report2.Checkpoint.corrupted = []
    && (not report2.Checkpoint.migrated_from_v1)
    && List.length recovered2 = 3);
  Sys.remove path

let fingerprint_guard () =
  print_endline "fingerprint guard:";
  let path = fresh_checkpoint (Filename.temp_file "ncg_corrupt" ".ckpt") in
  check "resume under a different sweep configuration is refused"
    (match Checkpoint.open_ ~resume:true ~fingerprint:"other sweep" path with
    | cp ->
        Checkpoint.close cp;
        false
    | exception Failure _ -> true);
  Sys.remove path

let () =
  roundtrip ();
  bit_flip ();
  truncation ();
  duplicate ();
  v1_migration ();
  fingerprint_guard ();
  if !failures > 0 then begin
    Printf.printf "corrupt_check: %d check(s) FAILED\n" !failures;
    exit 1
  end
  else print_endline "corrupt_check: all checks passed"
