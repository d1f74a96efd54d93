(* Snapshot persistence tests: save/load round-trips preserve every
   index, reloaded databases accept updates, and corrupt or foreign
   files are rejected cleanly. *)

module Db = Xvi_core.Db
module Parser = Xvi_xml.Parser
module Snapshot = Xvi_core.Snapshot
module Store = Xvi_xml.Store

let with_temp f =
  let path = Filename.temp_file "xvi_test" ".snap" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_roundtrip () =
  with_temp (fun path ->
      let xml = Xvi_workload.Xmark.generate ~seed:31 ~factor:0.01 () in
      let db =
        Db.of_store
          ~config:{ Db.Config.default with Db.Config.substring = true }
          (Parser.parse_exn xml)
      in
      Snapshot.save db path;
      Alcotest.(check bool) "is_snapshot" true (Snapshot.is_snapshot path);
      let db2 = Snapshot.load_exn path in
      (match Db.validate db2 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "reloaded validate: %s" e);
      (* queries agree between original and reloaded *)
      List.iter
        (fun probe ->
          Alcotest.(check (list int))
            (Printf.sprintf "lookup %S" probe)
            (Db.lookup_string db probe) (Db.lookup_string db2 probe))
        [ "Creditcard"; "male"; "Arthur Dent" ];
      Alcotest.(check (list int)) "range agrees"
        (Db.lookup_double db (Db.Range.between 10.0 20.0))
        (Db.lookup_double db2 (Db.Range.between 10.0 20.0));
      Alcotest.(check (list int)) "contains agrees"
        (Db.lookup_contains db "ship")
        (Db.lookup_contains db2 "ship"))

let test_reloaded_updates () =
  with_temp (fun path ->
      let db =
        Db.of_store (Parser.parse_exn "<a><b>old value</b><c>7.5</c></a>")
      in
      Snapshot.save db path;
      let db2 = Snapshot.load_exn path in
      let store = Store.text_nodes (Db.store db2) in
      Db.update_text db2 store.(0) "new value";
      Db.update_text db2 store.(1) "8.5";
      (match Db.validate db2 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "validate: %s" e);
      (* the text node and its <b> parent both have that string value *)
      Alcotest.(check int) "string moved" 2
        (List.length (Db.lookup_string db2 "new value"));
      Alcotest.(check int) "double moved" 2
        (List.length (Db.lookup_double db2 (Db.Range.between 8.5 8.5))))

let test_rejects_garbage () =
  with_temp (fun path ->
      let oc = open_out_bin path in
      output_string oc "<xml>not a snapshot</xml>";
      close_out oc;
      Alcotest.(check bool) "not a snapshot" false (Snapshot.is_snapshot path);
      match Snapshot.load path with
      | Error Snapshot.Not_a_snapshot -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Snapshot.error_to_string e)
      | Ok _ -> Alcotest.fail "garbage loaded")

let test_rejects_fingerprint_mismatch () =
  with_temp (fun path ->
      let db = Db.of_store (Parser.parse_exn "<a>x</a>") in
      Snapshot.save db path;
      (* flip a byte inside the fingerprint line *)
      let content =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let mutated = Bytes.of_string content in
      let fp_pos = String.length "XVI-SNAPSHOT-3\n" in
      Bytes.set mutated fp_pos
        (if Bytes.get mutated fp_pos = '0' then '1' else '0');
      let oc = open_out_bin path in
      output_bytes oc mutated;
      close_out oc;
      match Snapshot.load path with
      | Error Snapshot.Binary_mismatch -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Snapshot.error_to_string e)
      | Ok _ -> Alcotest.fail "mismatched snapshot loaded")

let test_missing_file () =
  match Snapshot.load "/nonexistent/path/db.snap" with
  | Error (Snapshot.Io_error _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "loaded from nowhere"

let () =
  Alcotest.run "snapshot"
    [
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "reloaded updates" `Quick test_reloaded_updates;
          Alcotest.test_case "rejects garbage" `Quick test_rejects_garbage;
          Alcotest.test_case "rejects foreign binary" `Quick test_rejects_fingerprint_mismatch;
          Alcotest.test_case "missing file" `Quick test_missing_file;
        ] );
    ]
