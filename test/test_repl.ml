(* Replication tests: an in-process follower over a real leader engine
   (bootstrap, catch-up, staleness, read-only replica, promote), the
   same topology over actual Unix sockets with the repl verbs and
   client-driven failover, rejoin truncation of a divergent tail, and
   a quick run of the replication fault sweep. *)

module Store = Xvi_xml.Store
module Db = Xvi_core.Db
module Parser = Xvi_xml.Parser
module Wal = Xvi_wal.Wal
module Engine = Xvi_serve.Engine
module Server = Xvi_serve.Server
module Client = Xvi_serve.Client
module Transport = Xvi_repl.Transport
module Leader = Xvi_repl.Leader
module Follower = Xvi_repl.Follower
module Route = Xvi_repl.Route
module Fault = Xvi_check.Fault

let small_xml = "<doc><a>alpha</a><b>beta</b><c n=\"7\">gamma</c></doc>"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let with_root f =
  let root = Filename.temp_file "xvi-repl" "" in
  Sys.remove root;
  Unix.mkdir root 0o700;
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Engine.error_to_string e)

let cli what = function
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" what m

let first_text db =
  let texts = Store.text_nodes (Db.store db) in
  if Array.length texts = 0 then Alcotest.fail "no text nodes";
  texts.(0)

let drain what f =
  let rec go n =
    if n > 10_000 then Alcotest.failf "%s: follower did not converge" what
    else
      match Follower.catch_up f with
      | Ok `Caught_up -> ()
      | Ok (`Applied _) | Ok `Resynced -> go (n + 1)
      | Error m -> Alcotest.failf "%s: catch-up: %s" what m
  in
  go 0

(* --- in-process: follower over Transport.of_engine ----------------- *)

let test_follower_catch_up_and_promote () =
  with_root (fun root ->
      let ldir = Filename.concat root "leader" in
      let fdir = Filename.concat root "follower" in
      let leader =
        ok_exn "init leader"
          (Engine.init ~sync_mode:Wal.Always ~dir:ldir
             (Db.of_store (Parser.parse_exn small_xml)))
      in
      Fun.protect
        ~finally:(fun () -> Engine.close leader)
        (fun () ->
          let t0 = first_text (Engine.snapshot leader) in
          ignore
            (ok_exn "commit 1" (Engine.update_texts leader [ (t0, "one") ])
              : int);
          let f =
            cli "follower create"
              (Follower.create ~sync_mode:Wal.Always
                 ~transport:(Transport.of_engine leader) ~dir:fdir ())
          in
          drain "bootstrap" f;
          let replica = Follower.engine f in
          (* the replica serves the leader's committed state, read-only *)
          Alcotest.(check bool) "replica is read-only" true
            (Engine.read_only replica);
          if not (List.mem t0 (Db.lookup_string (Engine.snapshot replica) "one"))
          then Alcotest.fail "bootstrapped commit not readable on replica";
          (match Engine.update_texts replica [ (t0, "nope" ) ] with
          | Error Engine.Read_only -> ()
          | Error e ->
              Alcotest.failf "wanted Read_only, got %s" (Engine.error_to_string e)
          | Ok _ -> Alcotest.fail "replica accepted a write");
          (* staleness counts the gap, catch-up closes it *)
          ignore
            (ok_exn "commit 2" (Engine.update_texts leader [ (t0, "two") ])
              : int);
          let lag_before = Follower.staleness f in
          drain "second batch" f;
          let lsns_match () =
            Alcotest.(check int) "applied = leader durable"
              (Engine.stats leader).Engine.durable_lsn (Follower.applied_lsn f)
          in
          lsns_match ();
          Alcotest.(check int) "caught up: no staleness" 0 (Follower.staleness f);
          ignore (lag_before : int);
          if
            not
              (List.mem t0
                 (Db.lookup_string (Engine.snapshot (Follower.engine f)) "two"))
          then Alcotest.fail "second commit not applied";
          (* promotion recovers the same directory as a writable engine *)
          let promoted, handlers =
            cli "promote" (Follower.promote f)
          in
          Fun.protect
            ~finally:(fun () ->
              Follower.close f;
              Engine.close promoted)
            (fun () ->
              Alcotest.(check string) "leader handlers" "leader"
                handlers.Server.role;
              Alcotest.(check bool) "promoted is writable" false
                (Engine.read_only promoted);
              ignore
                (ok_exn "write after failover"
                   (Engine.update_texts promoted [ (t0, "failover write") ])
                  : int);
              if
                not
                  (List.mem t0
                     (Db.lookup_string (Engine.snapshot promoted)
                        "failover write"))
              then Alcotest.fail "post-failover write not visible")))

let test_rejoin_truncates_divergent_tail () =
  with_root (fun root ->
      let ldir = Filename.concat root "leader" in
      let fdir = Filename.concat root "follower" in
      let leader =
        ok_exn "init leader"
          (Engine.init ~sync_mode:Wal.Always ~dir:ldir
             (Db.of_store (Parser.parse_exn small_xml)))
      in
      let t0 = first_text (Engine.snapshot leader) in
      ignore (ok_exn "shared" (Engine.update_texts leader [ (t0, "shared") ]) : int);
      (* a synced follower... *)
      let f =
        cli "follower"
          (Follower.create ~sync_mode:Wal.Always
             ~transport:(Transport.of_engine leader) ~dir:fdir ())
      in
      drain "sync" f;
      Follower.close f;
      (* ...then the old leader commits past the follower's position and
         "crashes": the follower is promoted, writes its own history,
         and the deposed leader rejoins — its unreplicated tail must go *)
      ignore
        (ok_exn "divergent" (Engine.update_texts leader [ (t0, "never shipped") ])
          : int);
      Engine.close leader;
      let promoted = ok_exn "promote follower" (Engine.open_ (Engine.Dir fdir)) in
      Fun.protect
        ~finally:(fun () -> Engine.close promoted)
        (fun () ->
          ignore
            (ok_exn "new history"
               (Engine.update_texts promoted [ (t0, "new history") ])
              : int);
          Engine.sync promoted;
          let rejoined =
            cli "rejoin"
              (Follower.create ~sync_mode:Wal.Always
                 ~transport:(Transport.of_engine promoted) ~dir:ldir ())
          in
          Fun.protect
            ~finally:(fun () -> Follower.close rejoined)
            (fun () ->
              drain "rejoin" rejoined;
              Alcotest.(check int) "rejoined at the new leader's lsn"
                (Engine.stats promoted).Engine.durable_lsn
                (Follower.applied_lsn rejoined);
              let db = Engine.snapshot (Follower.engine rejoined) in
              if not (List.mem t0 (Db.lookup_string db "new history")) then
                Alcotest.fail "rejoined node missing the new history";
              if Db.lookup_string db "never shipped" <> [] then
                Alcotest.fail
                  "rejoined node kept its divergent unreplicated commit")))

(* --- over real sockets: serve --follow, stale reads, promote ------- *)

let test_sockets_and_failover () =
  with_root (fun root ->
      let ldir = Filename.concat root "leader" in
      let fdir = Filename.concat root "follower" in
      let lsock = Filename.concat root "l.sock" in
      let fsock = Filename.concat root "f.sock" in
      let leader =
        ok_exn "init leader"
          (Engine.init ~sync_mode:Wal.Always ~dir:ldir
             (Db.of_store (Parser.parse_exn small_xml)))
      in
      let t0 = first_text (Engine.snapshot leader) in
      let lserver =
        match
          Server.create ~repl:(Leader.handlers leader) ~engine:leader
            ~socket:lsock ()
        with
        | Ok s -> s
        | Error m -> Alcotest.failf "leader server: %s" m
      in
      let ldom = Domain.spawn (fun () -> Server.run lserver) in
      let leader_stopped = ref false in
      let stop_leader () =
        if not !leader_stopped then begin
          leader_stopped := true;
          Server.request_stop lserver;
          Domain.join ldom
        end
      in
      Fun.protect
        ~finally:(fun () ->
          stop_leader ();
          Engine.close leader)
        (fun () ->
          (* a follower connected through the leader's socket *)
          let transport = cli "connect" (Transport.connect ~socket:lsock ()) in
          let f =
            cli "follower"
              (Follower.create ~sync_mode:Wal.Always ~transport ~dir:fdir ())
          in
          let fserver =
            match
              Server.create ~repl:(Follower.handlers f)
                ~engine:(Follower.engine f) ~socket:fsock ()
            with
            | Ok s -> s
            | Error m -> Alcotest.failf "follower server: %s" m
          in
          Follower.set_on_engine_change f (Server.set_engine fserver);
          Follower.start f;
          let fdom = Domain.spawn (fun () -> Server.run fserver) in
          Fun.protect
            ~finally:(fun () ->
              Server.request_stop fserver;
              Domain.join fdom;
              (* promoted before we get here: the engine is ours *)
              let final = Server.engine fserver in
              Follower.close f;
              if not (Engine.read_only final) then Engine.close final)
            (fun () ->
              (* write through the leader's socket, read it back —
                 stale-bounded — through the follower's socket *)
              let lc = cli "leader client" (Client.connect ~socket:lsock ()) in
              let fc = cli "follower client" (Client.connect ~socket:fsock ()) in
              Fun.protect
                ~finally:(fun () ->
                  Client.close lc;
                  Client.close fc)
                (fun () ->
                  let info = cli "leader info" (Client.repl_info lc) in
                  Alcotest.(check string) "leader role" "leader"
                    info.Client.role;
                  cli "begin" (Client.begin_ lc);
                  cli "set" (Client.set lc t0 "replicated value");
                  ignore
                    (cli "commit" (Client.commit ~durable:true lc) : int);
                  (* wait until the pull loop has applied the commit *)
                  let deadline = Unix.gettimeofday () +. 10.0 in
                  let rec await () =
                    let fi = cli "follower info" (Client.repl_info fc) in
                    if fi.Client.applied_lsn >= info.Client.durable_lsn + 1
                    then ()
                    else if Unix.gettimeofday () > deadline then
                      Alcotest.fail "follower never applied the commit"
                    else begin
                      Unix.sleepf 0.01;
                      await ()
                    end
                  in
                  await ();
                  let fi = cli "follower info" (Client.repl_info fc) in
                  Alcotest.(check string) "follower role" "follower"
                    fi.Client.role;
                  ignore
                    (cli "repin follower" (Client.pin fc) : int * int * int);
                  if
                    cli "stale-bounded read"
                      (Client.lookup_string fc "replicated value")
                    = []
                  then Alcotest.fail "follower does not serve the commit";
                  (* writes through a follower buffer fine but the
                     commit is refused: the replica is read-only *)
                  cli "begin on follower" (Client.begin_ fc);
                  cli "buffered set" (Client.set fc t0 "nope");
                  (match Client.commit fc with
                  | Error _ -> ()
                  | Ok _ -> Alcotest.fail "follower committed a write");
                  (* stats gains the replication rows *)
                  let st = cli "follower stats" (Client.stats fc) in
                  if List.assoc_opt "staleness" st = None then
                    Alcotest.fail "follower stats missing staleness";
                  (* leader dies; client-driven failover over the wire *)
                  stop_leader ();
                  cli "promote over the wire" (Client.promote fc);
                  let pi = cli "promoted info" (Client.repl_info fc) in
                  Alcotest.(check string) "promoted role" "leader"
                    pi.Client.role;
                  (* new connections write through the promoted node *)
                  let wc =
                    cli "post-failover client" (Client.connect ~socket:fsock ())
                  in
                  Fun.protect
                    ~finally:(fun () -> Client.close wc)
                    (fun () ->
                      cli "begin post-failover" (Client.begin_ wc);
                      cli "set post-failover"
                        (Client.set wc t0 "written after failover");
                      ignore
                        (cli "commit post-failover" (Client.commit wc) : int);
                      if
                        cli "read back"
                          (Client.lookup_string wc "written after failover")
                        = []
                      then Alcotest.fail "post-failover write not served")))))

(* --- read routing --------------------------------------------------- *)

let test_route_prefers_followers () =
  with_root (fun root ->
      let ldir = Filename.concat root "leader" in
      let fdir = Filename.concat root "follower" in
      let lsock = Filename.concat root "l.sock" in
      let fsock = Filename.concat root "f.sock" in
      let leader =
        ok_exn "init leader"
          (Engine.init ~sync_mode:Wal.Always ~dir:ldir
             (Db.of_store (Parser.parse_exn small_xml)))
      in
      let t0 = first_text (Engine.snapshot leader) in
      ignore (ok_exn "seed" (Engine.update_texts leader [ (t0, "routed") ]) : int);
      let lserver =
        match
          Server.create ~repl:(Leader.handlers leader) ~engine:leader
            ~socket:lsock ()
        with
        | Ok s -> s
        | Error m -> Alcotest.failf "leader server: %s" m
      in
      let ldom = Domain.spawn (fun () -> Server.run lserver) in
      Fun.protect
        ~finally:(fun () ->
          Server.request_stop lserver;
          Domain.join ldom;
          Engine.close leader)
        (fun () ->
          let transport = cli "connect" (Transport.connect ~socket:lsock ()) in
          let f =
            cli "follower"
              (Follower.create ~sync_mode:Wal.Always ~transport ~dir:fdir ())
          in
          drain "sync" f;
          let fserver =
            match
              Server.create ~repl:(Follower.handlers f)
                ~engine:(Follower.engine f) ~socket:fsock ()
            with
            | Ok s -> s
            | Error m -> Alcotest.failf "follower server: %s" m
          in
          let fdom = Domain.spawn (fun () -> Server.run fserver) in
          Fun.protect
            ~finally:(fun () ->
              Server.request_stop fserver;
              Domain.join fdom;
              Follower.close f)
            (fun () ->
              let lc = cli "leader client" (Client.connect ~socket:lsock ()) in
              let fc = cli "follower client" (Client.connect ~socket:fsock ()) in
              Fun.protect
                ~finally:(fun () ->
                  Client.close lc;
                  Client.close fc)
                (fun () ->
                  let route = Route.create ~leader:lc ~followers:[ fc ] () in
                  (* reads land on the follower (round robin starts
                     there); writes go to the leader *)
                  let hits =
                    cli "routed read"
                      (Route.read route (fun c -> Client.lookup_string c "routed"))
                  in
                  if hits = [] then Alcotest.fail "routed read missed";
                  cli "routed write begin" (Route.write route Client.begin_);
                  cli "routed write abort" (Route.write route Client.abort);
                  (* an impossible staleness bound falls back to the
                     leader rather than failing *)
                  let again =
                    cli "bounded read"
                      (Route.read ~max_staleness:0 route (fun c ->
                           Client.lookup_string c "routed"))
                  in
                  if again = [] then Alcotest.fail "bounded read missed"))))

(* --- the replication fault sweep (quick caps) ----------------------- *)

let test_repl_sweep_quick () =
  let db = Db.of_store (Parser.parse_exn small_xml) in
  let texts = Store.text_nodes (Db.store db) in
  let t i = texts.(i) in
  let batches =
    [
      [ (t 0, "round1-a") ];
      [ (t 1, "round1-b"); (t 2, "round1-c") ];
      [ (t 0, "round2-a") ];
      [ (t 1, "round2-b") ];
    ]
  in
  match
    Fault.repl_sweep ~cut_points:30 ~stream_flips:60 ~follower_crashes:20
      ~failovers:4 db batches
  with
  | Ok r ->
      (* 4 batches plus the sweep's probe insert and delete *)
      Alcotest.(check int) "commits" 6 r.Fault.repl_commits;
      if r.Fault.repl_cut_points < 5 then
        Alcotest.failf "suspiciously few cuts: %d" r.Fault.repl_cut_points;
      if r.Fault.stream_flips < 10 then
        Alcotest.failf "suspiciously few flips: %d" r.Fault.stream_flips;
      if r.Fault.follower_crashes < 5 then
        Alcotest.failf "suspiciously few follower crashes: %d"
          r.Fault.follower_crashes;
      if r.Fault.repl_failovers < 2 then
        Alcotest.failf "suspiciously few failovers: %d" r.Fault.repl_failovers
  | Error m -> Alcotest.fail m

let () =
  Alcotest.run "repl"
    [
      ( "follower",
        [
          Alcotest.test_case "bootstrap, catch up, promote" `Quick
            test_follower_catch_up_and_promote;
          Alcotest.test_case "rejoin truncates divergent tail" `Quick
            test_rejoin_truncates_divergent_tail;
        ] );
      ( "sockets",
        [
          Alcotest.test_case "replicate and fail over the wire" `Quick
            test_sockets_and_failover;
          Alcotest.test_case "reads route to followers" `Quick
            test_route_prefers_followers;
        ] );
      ( "fault sweep",
        [ Alcotest.test_case "quick replication sweep" `Quick test_repl_sweep_quick ] );
    ]
