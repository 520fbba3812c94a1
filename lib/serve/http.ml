(* Minimal HTTP/1.1 framing over Unix sockets. One request per
   connection; Content-Length bodies only. See the .mli for scope. *)

type request = {
  meth : string;
  path : string;
  headers : (string * string) list;
  body : string;
}

type error = Closed | Too_large of string | Malformed of string | Timeout

let max_header_bytes = 8192
let default_max_body = 1024 * 1024
let deadline_s = 2.

let reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 500 -> "Internal Server Error"
  | _ -> "Unknown"

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

exception Deadline

(* One read that waits only for the time left before [deadline]. *)
let rec read_before deadline fd buf off len =
  let left = deadline -. Unix.gettimeofday () in
  if left <= 0. then raise Deadline;
  match Unix.select [ fd ] [] [] left with
  | [], _, _ -> read_before deadline fd buf off len
  | _ -> Unix.read fd buf off len
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
    read_before deadline fd buf off len

let rec really_read deadline fd buf off need =
  if need > 0 then begin
    let got = read_before deadline fd buf off need in
    if got = 0 then raise End_of_file;
    really_read deadline fd buf (off + got) (need - got)
  end

(* Accumulate until the header terminator; bytes past it are the start
   of the body. *)
let read_head deadline fd =
  let chunk = Bytes.create 1024 in
  let acc = Buffer.create 512 in
  (* Rescanning the whole buffer per chunk is fine: the head is capped
     at 8 KiB and normal requests arrive in one or two reads. *)
  let find_terminator () =
    let s = Buffer.contents acc in
    let limit = Buffer.length acc - 4 in
    let rec scan i =
      if i > limit then None
      else if
        s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
      then Some i
      else scan (i + 1)
    in
    scan 0
  in
  let rec loop () =
    match find_terminator () with
    | Some at ->
      let s = Buffer.contents acc in
      Ok (String.sub s 0 at, String.sub s (at + 4) (String.length s - at - 4))
    | None ->
      if Buffer.length acc > max_header_bytes then
        Error (Too_large "request headers exceed the 8 KiB cap")
      else begin
        let got = read_before deadline fd chunk 0 (Bytes.length chunk) in
        if got = 0 then Error Closed
        else begin
          Buffer.add_subbytes acc chunk 0 got;
          loop ()
        end
      end
  in
  match loop () with exception End_of_file -> Error Closed | r -> r

let parse_headers lines =
  List.fold_left
    (fun acc line ->
      match acc with
      | Error _ -> acc
      | Ok headers -> (
        match String.index_opt line ':' with
        | None -> Error (Malformed (Printf.sprintf "malformed header line %S" line))
        | Some i ->
          let name = String.lowercase_ascii (String.sub line 0 i) in
          let value =
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          in
          Ok ((name, value) :: headers)))
    (Ok []) lines

let read_framed ~max_body deadline fd =
  match read_head deadline fd with
  | Error e -> Error e
  | Ok (head, early_body) -> (
    match String.split_on_char '\n' head with
    | [] -> Error (Malformed "empty request")
    | request_line :: header_lines -> (
      let strip_cr s =
        if s <> "" && s.[String.length s - 1] = '\r' then
          String.sub s 0 (String.length s - 1)
        else s
      in
      let header_lines = List.map strip_cr header_lines in
      match String.split_on_char ' ' (strip_cr request_line) with
      | [ meth; path; version ]
        when String.length version >= 7 && String.sub version 0 7 = "HTTP/1." -> (
        match parse_headers header_lines with
        | Error e -> Error e
        | Ok headers -> (
          let content_length =
            match List.assoc_opt "content-length" headers with
            | None -> Ok 0
            | Some v -> (
              match int_of_string_opt (String.trim v) with
              | Some n when n >= 0 -> Ok n
              | _ -> Error (Malformed (Printf.sprintf "bad Content-Length %S" v)))
          in
          match content_length with
          | Error e -> Error e
          | Ok n when n > max_body ->
            Error
              (Too_large
                 (Printf.sprintf "declared body of %d bytes exceeds the %d byte cap"
                    n max_body))
          | Ok n -> (
            let have = String.length early_body in
            if have >= n then
              Ok { meth; path; headers; body = String.sub early_body 0 n }
            else begin
              let rest = Bytes.create (n - have) in
              match really_read deadline fd rest 0 (n - have) with
              | () ->
                Ok { meth; path; headers; body = early_body ^ Bytes.to_string rest }
              | exception End_of_file -> Error Closed
            end)))
      | _ -> Error (Malformed "malformed request line")))

let read_request ?(max_body = default_max_body) fd =
  let deadline = Unix.gettimeofday () +. deadline_s in
  try read_framed ~max_body deadline fd with Deadline -> Error Timeout

let header req name = List.assoc_opt (String.lowercase_ascii name) req.headers

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

let write_response fd ~status ?(content_type = "application/json") body =
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
      status (reason status) content_type (String.length body)
  in
  try write_all fd (head ^ body)
  with Unix.Unix_error _ -> () (* peer went away; connection closes anyway *)

(* ------------------------------------------------------------------ *)
(* Client                                                              *)
(* ------------------------------------------------------------------ *)

let roundtrip ~port text =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      write_all fd text;
      let acc = Buffer.create 512 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let got = Unix.read fd chunk 0 (Bytes.length chunk) in
        if got > 0 then begin
          Buffer.add_subbytes acc chunk 0 got;
          drain ()
        end
      in
      drain ();
      Buffer.contents acc)

let parse_response text =
  match String.index_opt text '\r' with
  | None -> Error "malformed response: no status line"
  | Some eol -> (
    let status_line = String.sub text 0 eol in
    match String.split_on_char ' ' status_line with
    | _http :: code :: _ -> (
      match int_of_string_opt code with
      | None -> Error (Printf.sprintf "malformed status %S" status_line)
      | Some status -> (
        (* Body = everything after the first blank line. *)
        let rec find i =
          if i + 3 >= String.length text then None
          else if
            text.[i] = '\r' && text.[i + 1] = '\n' && text.[i + 2] = '\r'
            && text.[i + 3] = '\n'
          then Some (i + 4)
          else find (i + 1)
        in
        match find 0 with
        | None -> Error "malformed response: no header terminator"
        | Some at ->
          Ok (status, String.sub text at (String.length text - at))))
    | _ -> Error (Printf.sprintf "malformed status %S" status_line))

let request ~port text =
  match roundtrip ~port text with
  | raw -> parse_response raw
  | exception Unix.Unix_error (err, fn, _) ->
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))

let get ~port path =
  request ~port
    (Printf.sprintf "GET %s HTTP/1.1\r\nHost: 127.0.0.1:%d\r\n\r\n" path port)

let post ~port path ~body =
  request ~port
    (Printf.sprintf
       "POST %s HTTP/1.1\r\nHost: 127.0.0.1:%d\r\nContent-Type: \
        application/json\r\nContent-Length: %d\r\n\r\n%s"
       path port (String.length body) body)
