(* Span log of the traced pass: one span per path execution and one per
   coarse layer call inside it, kept in columns allocated up front and
   written out at exit as Chrome trace_event JSON (chrome://tracing,
   Perfetto).  Spans past the capacity are counted, not stored. *)

type t = {
  name : string array;
  start : int array;
  stop : int array;
  parent : int array; (* index of the enclosing path span, -1 for a path *)
  rep : int array; (* shared by every span of one path execution *)
  mutable len : int;
  mutable dropped : int;
}

let create capacity =
  {
    name = Array.make capacity "";
    start = Array.make capacity 0;
    stop = Array.make capacity 0;
    parent = Array.make capacity (-1);
    rep = Array.make capacity 0;
    len = 0;
    dropped = 0;
  }

(* Index of the stored span, or -1 when the log is full. *)
let add t ~name ~start ~stop ~parent ~rep =
  if t.len >= Array.length t.name then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let i = t.len in
    t.name.(i) <- name;
    t.start.(i) <- start;
    t.stop.(i) <- stop;
    t.parent.(i) <- parent;
    t.rep.(i) <- rep;
    t.len <- i + 1;
    i
  end

let set_stop t i stop = if i >= 0 then t.stop.(i) <- stop

let write_chrome t ~path =
  let origin = if t.len > 0 then t.start.(0) else 0 in
  let us ns = float_of_int (ns - origin) /. 1000.0 in
  let b = Buffer.create (128 * (t.len + 1)) in
  Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for i = 0 to t.len - 1 do
    if i > 0 then Buffer.add_char b ',';
    let parent = if t.parent.(i) >= 0 then t.name.(t.parent.(i)) else "" in
    Printf.bprintf b "\n{\"name\":%S,\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1," t.name.(i)
      (if t.parent.(i) >= 0 then "layer" else "path");
    Printf.bprintf b "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"rep\":%d,\"parent\":%S}}"
      (us t.start.(i))
      (float_of_int (t.stop.(i) - t.start.(i)) /. 1000.0)
      t.rep.(i) parent
  done;
  Printf.bprintf b "\n],\"otherData\":{\"dropped_spans\":%d}}\n" t.dropped;
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (Buffer.contents b))
