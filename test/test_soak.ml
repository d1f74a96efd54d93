(* Soak and fuzz tests: the parser must never raise on arbitrary bytes,
   a database must survive long randomized mixed-operation workloads
   with every index still validating, and randomly composed queries must
   agree between the naive and indexed evaluators. *)

module Store = Xvi_xml.Store
module Parser = Xvi_xml.Parser
module Db = Xvi_core.Db
module Prng = Xvi_util.Prng
module Xpath = Xvi_xpath.Xpath

(* --- parser fuzz --- *)

let test_fuzz_random_bytes () =
  let rng = Prng.create 1234 in
  for _ = 1 to 2_000 do
    let len = Prng.int rng 200 in
    let s = String.init len (fun _ -> Char.chr (Prng.int rng 256)) in
    match Parser.parse s with
    | Ok store -> Alcotest.(check bool) "live" true (Store.live_count store > 0)
    | Error _ -> ()
    | exception e ->
        Alcotest.failf "parser raised %s on %S" (Printexc.to_string e) s
  done

let test_fuzz_mutated_documents () =
  let rng = Prng.create 99 in
  let base = Xvi_workload.Xmark.generate ~seed:5 ~factor:0.002 () in
  for _ = 1 to 500 do
    let b = Bytes.of_string base in
    (* up to 5 random byte mutations *)
    for _ = 1 to 1 + Prng.int rng 5 do
      Bytes.set b (Prng.int rng (Bytes.length b)) (Char.chr (Prng.int rng 256))
    done;
    let s = Bytes.to_string b in
    match Parser.parse s with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "parser raised %s on a mutated document"
          (Printexc.to_string e)
  done

let test_fuzz_truncated_documents () =
  let base = Xvi_workload.Datasets.wiki ~seed:5 ~factor:0.0005 () in
  let rng = Prng.create 7 in
  for _ = 1 to 300 do
    let cut = Prng.int rng (String.length base) in
    match Parser.parse (String.sub base 0 cut) with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "parser raised %s on truncation at %d"
          (Printexc.to_string e) cut
  done

(* --- xpath parser fuzz --- *)

let test_fuzz_xpath () =
  let rng = Prng.create 31 in
  let pieces =
    [| "//"; "/"; "person"; "["; "]"; "="; "\"x\""; "42"; "@"; "*"; "."; "and";
       "or"; "text()"; "<"; ">"; "("; ")"; "contains("; ","; "fn:data(" |]
  in
  for _ = 1 to 3_000 do
    let n = 1 + Prng.int rng 8 in
    let q = String.concat "" (List.init n (fun _ -> Prng.choose rng pieces)) in
    match Xpath.parse q with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "xpath parser raised %s on %S" (Printexc.to_string e) q
  done

(* --- database soak --- *)

let soak ~seed ~rounds ~substring =
  let xml = Xvi_workload.Xmark.generate ~seed ~factor:0.008 () in
  let db =
    Db.of_store ~config:{ Db.Config.default with Db.Config.substring }
      (Parser.parse_exn xml)
  in
  let store = Db.store db in
  let rng = Prng.create (seed * 31) in
  let tg = Xvi_workload.Text_gen.create (Prng.split rng) in
  let fragments =
    [|
      "<note>soak insert</note>";
      "<price>123.75</price>";
      "<meta ts=\"2005-01-01T00:00:00Z\"><v>1</v>.<w>5</w></meta>";
      "plain text insert";
    |]
  in
  for round = 1 to rounds do
    (match Prng.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 ->
        (* batch of text updates *)
        let count = 1 + Prng.int rng 30 in
        let updates =
          Xvi_workload.Update_workload.random_text_updates
            ~seed:(seed + round) store ~count
        in
        Db.update_texts db updates
    | 5 | 6 ->
        (* delete a random deep element *)
        let candidates = ref [] in
        Store.iter_pre store (fun n ->
            if Store.kind store n = Store.Element && Store.level store n >= 3
            then candidates := n :: !candidates);
        (match !candidates with
        | [] -> ()
        | l -> Db.delete_subtree db (List.nth l (Prng.int rng (List.length l))))
    | 7 | 8 ->
        (* insert a fragment under a random live element *)
        let candidates = ref [] in
        Store.iter_pre store (fun n ->
            if Store.kind store n = Store.Element then candidates := n :: !candidates);
        let parent = List.nth !candidates (Prng.int rng (List.length !candidates)) in
        (match Db.insert_xml db ~parent (Prng.choose rng fragments) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "insert failed: %s" (Parser.error_to_string e))
    | _ ->
        (* query probes; they should never raise *)
        ignore (Db.lookup_string db (Xvi_workload.Text_gen.word tg));
        ignore (Db.lookup_double db (Db.Range.between 0.0 50.0));
        if substring then ignore (Db.lookup_contains db "soak"));
    if round mod 10 = 0 then
      match Db.validate db with
      | Ok () -> ()
      | Error e -> Alcotest.failf "round %d: %s" round e
  done;
  match Db.validate db with
  | Ok () -> ()
  | Error e -> Alcotest.failf "final: %s" e

let test_soak_basic () = soak ~seed:41 ~rounds:60 ~substring:false
let test_soak_substring () = soak ~seed:42 ~rounds:40 ~substring:true

let test_soak_fragment_mode () =
  (* the `Fragment reconstruction mode under the same chaos *)
  let xml = Xvi_workload.Xmark.generate ~seed:43 ~factor:0.005 () in
  let store = Parser.parse_exn xml in
  let module TI = Xvi_core.Typed_index in
  let ti = TI.create ~reconstruct:`Fragment (Xvi_core.Lexical_types.double ()) store in
  let rng = Prng.create 4343 in
  for round = 1 to 50 do
    let count = 1 + Prng.int rng 20 in
    let updates =
      Xvi_workload.Update_workload.random_text_updates ~seed:(4300 + round)
        store ~count
    in
    List.iter (fun (n, v) -> Store.set_text store n v) updates;
    TI.update_texts ti store (List.map fst updates);
    if round mod 10 = 0 then
      match TI.validate ti store with
      | Ok () -> ()
      | Error e -> Alcotest.failf "fragment round %d: %s" round e
  done

(* --- random query equivalence --- *)

let test_random_queries () =
  let xml = Xvi_workload.Xmark.generate ~seed:51 ~factor:0.01 () in
  let db =
    Db.of_store ~config:{ Db.Config.default with Db.Config.substring = true }
      (Parser.parse_exn xml)
  in
  let store = Db.store db in
  let rng = Prng.create 5151 in
  let names =
    [| "person"; "item"; "open_auction"; "price"; "name"; "quantity"; "bidder";
       "initial"; "keyword"; "profile" |]
  in
  let values = [| "42"; "2"; "100.5"; "male"; "Yes"; "Creditcard" |] in
  let gen_query () =
    let buf = Buffer.create 32 in
    Buffer.add_string buf (if Prng.bool rng then "//" else "//site//");
    Buffer.add_string buf (Prng.choose rng names);
    if Prng.bool rng then begin
      Buffer.add_char buf '[';
      let operand =
        match Prng.int rng 3 with
        | 0 -> "."
        | 1 -> ".//" ^ Prng.choose rng names
        | _ -> Prng.choose rng names
      in
      (match Prng.int rng 4 with
      | 0 ->
          Buffer.add_string buf
            (Printf.sprintf "%s = \"%s\"" operand (Prng.choose rng values))
      | 1 ->
          Buffer.add_string buf
            (Printf.sprintf "%s %s %d" operand
               (Prng.choose rng [| "<"; "<="; ">"; ">=" |])
               (Prng.int rng 200))
      | 2 -> Buffer.add_string buf operand (* existence *)
      | _ ->
          Buffer.add_string buf
            (Printf.sprintf "contains(%s, \"%s\")" operand
               (Prng.choose rng [| "redit"; "male"; "xyz"; "es" |])));
      Buffer.add_char buf ']'
    end;
    Buffer.contents buf
  in
  for _ = 1 to 120 do
    let q = gen_query () in
    match Xpath.parse q with
    | Error e -> Alcotest.failf "generated query %S failed to parse: %s" q e.Xpath.message
    | Ok t ->
        let naive = Xpath.eval store t in
        let indexed = Xpath.eval_indexed db t in
        if naive <> indexed then
          Alcotest.failf "divergence on %S: naive %d vs indexed %d" q
            (List.length naive) (List.length indexed)
  done

let () =
  Alcotest.run "soak"
    [
      ( "fuzz",
        [
          Alcotest.test_case "random bytes" `Quick test_fuzz_random_bytes;
          Alcotest.test_case "mutated documents" `Quick test_fuzz_mutated_documents;
          Alcotest.test_case "truncated documents" `Quick test_fuzz_truncated_documents;
          Alcotest.test_case "xpath fragments" `Quick test_fuzz_xpath;
        ] );
      ( "soak",
        [
          Alcotest.test_case "mixed workload" `Slow test_soak_basic;
          Alcotest.test_case "with substring index" `Slow test_soak_substring;
          Alcotest.test_case "fragment mode" `Quick test_soak_fragment_mode;
        ] );
      ( "queries",
        [ Alcotest.test_case "random equivalence" `Slow test_random_queries ] );
    ]
