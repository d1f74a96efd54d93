(* Pre/size/level plane tests: encoding invariants against the store,
   staircase joins against naive implementations, scoped Db lookups,
   and snapshot invalidation across structural updates. *)

module Store = Xvi_xml.Store
module Parser = Xvi_xml.Parser
module Plane = Xvi_xml.Pre_plane
module Db = Xvi_core.Db
module Prng = Xvi_util.Prng

let person_doc =
  "<person><name><first>Arthur</first><family>Dent</family></name>\
   <birthday>1966-09-26</birthday><age><decades>4</decades>2<years/></age>\
   <weight><kilos>78</kilos>.<grams>230</grams></weight></person>"

let random_store seed =
  let xml = Xvi_workload.Xmark.generate ~seed ~factor:0.003 () in
  Parser.parse_exn xml

let test_encoding_invariants () =
  let store = random_store 61 in
  let plane = Plane.build store in
  Alcotest.(check int) "live nodes" (Store.live_count store) (Plane.live_nodes plane);
  (* pre order = iter_pre order *)
  let i = ref 0 in
  Store.iter_pre store (fun n ->
      Alcotest.(check int) "pre rank" !i (Plane.pre plane n);
      Alcotest.(check int) "node_at inverse" n (Plane.node_at plane !i);
      incr i);
  (* size and level agree with the store *)
  Store.iter_pre store (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "size of %d" n)
        (Store.subtree_size store n - 1)
        (Plane.size plane n);
      Alcotest.(check int)
        (Printf.sprintf "level of %d" n)
        (Store.level store n) (Plane.level plane n))

let test_order_and_descendancy () =
  let store = random_store 62 in
  let plane = Plane.build store in
  let nodes = ref [] in
  Store.iter_pre store (fun n -> nodes := n :: !nodes);
  let arr = Array.of_list !nodes in
  let rng = Prng.create 626 in
  for _ = 1 to 2_000 do
    let a = arr.(Prng.int rng (Array.length arr)) in
    let b = arr.(Prng.int rng (Array.length arr)) in
    Alcotest.(check int) "compare_order agrees with store"
      (compare (Store.compare_order store a b) 0)
      (compare (Plane.compare_order plane a b) 0);
    Alcotest.(check bool) "is_descendant agrees" (Store.is_ancestor store ~ancestor:a b)
      (Plane.is_descendant plane ~ancestor:a b)
  done

let test_descendants_list () =
  let store = Parser.parse_exn person_doc in
  let plane = Plane.build store in
  let person = Plane.node_at plane 1 in
  Alcotest.(check string) "person" "person" (Store.name store person);
  let ds = Plane.descendants plane person in
  Alcotest.(check int) "18 descendants" 18 (List.length ds);
  (* in document order and all strictly below *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "ordered" true (Plane.compare_order plane a b < 0);
        sorted rest
    | _ -> ()
  in
  sorted ds;
  List.iter
    (fun d ->
      Alcotest.(check bool) "descendant" true
        (Plane.is_descendant plane ~ancestor:person d))
    ds

let naive_join_descendant store ~context nodes =
  List.sort_uniq (Store.compare_order store)
    (List.filter
       (fun n -> List.exists (fun c -> Store.is_ancestor store ~ancestor:c n) context)
       nodes)

let naive_join_ancestor store ~context nodes =
  List.sort_uniq (Store.compare_order store)
    (List.filter
       (fun n -> List.exists (fun c -> Store.is_ancestor store ~ancestor:n c) context)
       nodes)

let test_staircase_joins () =
  let store = random_store 63 in
  let plane = Plane.build store in
  let all = ref [] in
  Store.iter_pre store (fun n -> all := n :: !all);
  let arr = Array.of_list !all in
  let rng = Prng.create 636 in
  for _ = 1 to 30 do
    let sample k =
      Array.to_list
        (Array.map (fun i -> arr.(i))
           (Prng.sample_distinct rng (min k (Array.length arr)) (Array.length arr)))
    in
    let context = sample (1 + Prng.int rng 20) in
    let nodes = sample (1 + Prng.int rng 200) in
    Alcotest.(check (list int)) "descendant join"
      (naive_join_descendant store ~context nodes)
      (Plane.join_descendant plane ~context nodes);
    Alcotest.(check (list int)) "ancestor join"
      (naive_join_ancestor store ~context nodes)
      (Plane.join_ancestor plane ~context nodes)
  done

let test_scoped_lookups () =
  let db =
    Db.of_store
      (Parser.parse_exn
         "<site><a><x>42</x><y>hello</y></a><b><x>42</x><y>hello</y><z>7</z></b></site>")
  in
  let store = Db.store db in
  let b =
    List.find
      (fun n -> Store.kind store n = Store.Element && Store.name store n = "b")
      (let acc = ref [] in
       Store.iter_pre store (fun n -> acc := n :: !acc);
       !acc)
  in
  (* global: two hits each; scoped to <b>: one *)
  Alcotest.(check int) "global hello" 4 (List.length (Db.lookup_string db "hello"))
  (* two texts + two <y> *);
  Alcotest.(check int) "scoped hello" 2
    (List.length (Db.lookup_string_within db ~scope:b "hello"));
  Alcotest.(check int) "scoped 42" 2
    (List.length (Db.lookup_double_within db ~scope:b (Db.Range.between 42.0 42.0)));
  Alcotest.(check int) "scoped 7 in b" 2
    (List.length (Db.lookup_double_within db ~scope:b (Db.Range.between 7.0 7.0)));
  (* scope itself can match: <z>'s own string value is 7 *)
  let z = List.hd (Db.elements_named db "z") in
  Alcotest.(check bool) "scope included" true
    (List.mem z (Db.lookup_double_within db ~scope:z (Db.Range.between 7.0 7.0)))

let test_plane_invalidation () =
  let db = Db.of_store (Parser.parse_exn "<a><b>one</b><c>two</c></a>") in
  let store = Db.store db in
  let p1 = Db.plane db in
  Alcotest.(check bool) "cached" true (p1 == Db.plane db);
  (* a value update keeps the snapshot *)
  Db.update_text db (Store.text_nodes store).(0) "uno";
  Alcotest.(check bool) "still cached after value update" true (p1 == Db.plane db);
  (* a structural update invalidates it *)
  let a = Option.get (Store.first_child store Store.document) in
  (match Db.insert_xml db ~parent:a "<d>three</d>" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "insert: %s" (Xvi_xml.Parser.error_to_string e));
  let p2 = Db.plane db in
  Alcotest.(check bool) "rebuilt" true (p1 != p2);
  Alcotest.(check int) "covers the new node" (Store.live_count store)
    (Plane.live_nodes p2);
  (* deletion invalidates too *)
  Db.delete_subtree db (List.hd (Db.elements_named db "b"));
  let p3 = Db.plane db in
  Alcotest.(check bool) "rebuilt again" true (p2 != p3)

let () =
  Alcotest.run "plane"
    [
      ( "plane",
        [
          Alcotest.test_case "encoding invariants" `Quick test_encoding_invariants;
          Alcotest.test_case "order and descendancy" `Quick test_order_and_descendancy;
          Alcotest.test_case "descendants list" `Quick test_descendants_list;
          Alcotest.test_case "staircase joins" `Quick test_staircase_joins;
          Alcotest.test_case "scoped lookups" `Quick test_scoped_lookups;
          Alcotest.test_case "invalidation" `Quick test_plane_invalidation;
        ] );
    ]
