type error = Sax.error = {
  line : int;
  col : int;
  offset : int;
  message : string;
}

let error_to_string = Sax.error_to_string

(* Appends an event stream below [parent]: [open_] holds the open
   elements, innermost first; [roots] the nodes appended directly under
   [parent], newest first. *)
type replay = {
  store : Store.t;
  parent : Store.node;
  mutable open_ : Store.node list;
  mutable roots : Store.node list;
}

let under r = match r.open_ with p :: _ -> p | [] -> r.parent
let note r n = match r.open_ with [] -> r.roots <- n :: r.roots | _ :: _ -> ()

let feed r ev =
  let parent = under r in
  match ev with
  | Sax.Start_element { name; attrs } ->
      let element = Store.append_element r.store ~parent name in
      List.iter
        (fun (name, value) ->
          ignore (Store.append_attribute r.store ~element ~name ~value
                  : Store.node))
        attrs;
      note r element;
      r.open_ <- element :: r.open_
  | Sax.End_element _ -> (
      match r.open_ with _ :: rest -> r.open_ <- rest | [] -> ())
  | Sax.Text s | Sax.Cdata s -> note r (Store.append_text r.store ~parent s)
  | Sax.Comment c -> note r (Store.append_comment r.store ~parent c)
  | Sax.Pi { target; body } ->
      note r (Store.append_pi r.store ~parent ~target body)

let parse ?strip_ws src =
  let r =
    { store = Store.create (); parent = Store.document; open_ = []; roots = [] }
  in
  let sax = Sax.make ?strip_ws (Sax.of_string src) in
  let rec go () =
    match Sax.next sax with
    | Error e -> Error e
    | Ok None -> Ok r.store
    | Ok (Some (ev, _)) ->
        feed r ev;
        go ()
  in
  go ()

let parse_exn ?strip_ws src =
  match parse ?strip_ws src with
  | Ok store -> store
  | Error e -> failwith (error_to_string e)

(* The whole fragment is lexed before the first append, so a rejected
   fragment leaves [store] untouched. *)
let parse_fragment ?strip_ws store ~parent src =
  let sax = Sax.fragment ?strip_ws (Sax.of_string src) in
  let rec lex events =
    match Sax.next sax with
    | Error e -> Error e
    | Ok (Some (ev, _)) -> lex (ev :: events)
    | Ok None ->
        let r = { store; parent; open_ = []; roots = [] } in
        List.iter (feed r) (List.rev events);
        Ok (List.rev r.roots)
  in
  lex []
