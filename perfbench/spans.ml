(* In-memory span recorder for the traced replay.

   A span is (request id, id, parent id, name, start, end) on the
   monotonic clock; spans are kept in growable arrays and written once,
   after the replay, so recording costs a clock read and a few array
   stores. With recording off, [span] just runs its body; the replay
   runs once each way to measure that overhead. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable on : bool;
  mutable n : int;
  mutable rid : int array;
  mutable parent : int array;
  mutable name : string array;
  mutable start : int array;
  mutable stop : int array;
}

let create () =
  let cap = 1024 in
  {
    on = true;
    n = 0;
    rid = Array.make cap 0;
    parent = Array.make cap 0;
    name = Array.make cap "";
    start = Array.make cap 0;
    stop = Array.make cap 0;
  }

let grow t =
  let cap = 2 * Array.length t.rid in
  let ext a d =
    let b = Array.make cap d in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.rid <- ext t.rid 0;
  t.parent <- ext t.parent 0;
  t.name <- ext t.name "";
  t.start <- ext t.start 0;
  t.stop <- ext t.stop 0

(* [span t ~rid ~parent name f] runs [f id] inside a span; [id] is the
   parent to give [f]'s own spans ([-1] when recording is off). *)
let span t ~rid ~parent name f =
  if not t.on then f (-1)
  else begin
    if t.n = Array.length t.rid then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.rid.(i) <- rid;
    t.parent.(i) <- parent;
    t.name.(i) <- name;
    t.start.(i) <- now_ns ();
    let r = f i in
    t.stop.(i) <- now_ns ();
    r
  end

let write t oc =
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "T\t%d\t%d\t%d\t%s\t%d\t%d\n" t.rid.(i) i t.parent.(i)
      t.name.(i) t.start.(i) t.stop.(i)
  done
