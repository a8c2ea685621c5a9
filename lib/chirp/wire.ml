let add_length buf len =
  Buffer.add_string buf (string_of_int len);
  Buffer.add_char buf ':'

let add_field buf field =
  add_length buf (String.length field);
  Buffer.add_string buf field

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)
let framed_size len = digits len + 1 + len
let field_size field = framed_size (String.length field)

(* Write [n]'s decimal digits so that the last lands at [i]. *)
let rec put_digits b i n =
  Bytes.unsafe_set b i (Char.unsafe_chr (Char.code '0' + (n mod 10)));
  if n >= 10 then put_digits b (i - 1) (n / 10)

(* Write [field]'s header and body at [pos]; returns the end. *)
let blit_field b pos field =
  let len = String.length field in
  let body = pos + digits len + 1 in
  put_digits b (body - 2) len;
  Bytes.unsafe_set b (body - 1) ':';
  Bytes.unsafe_blit_string field 0 b body len;
  body + len

let rec encoded_size acc = function [] -> acc | f :: rest -> encoded_size (acc + field_size f) rest

let rec blit_fields b pos = function
  | [] -> ()
  | f :: rest -> blit_fields b (blit_field b pos f) rest

(* One allocation of exactly the encoded size, each byte written once. *)
let encode fields =
  let b = Bytes.create (encoded_size 0 fields) in
  blit_fields b 0 fields;
  Bytes.unsafe_to_string b

(* A field length is what [add_length] writes: decimal digits, no sign,
   no leading zero (but "0" itself), no base prefix or separator.  At
   most 18 digits, so the value cannot overflow. *)
let parse_length s =
  let n = String.length s in
  let rec go i acc =
    if i = n then Some acc
    else
      match s.[i] with
      | '0' .. '9' as c -> go (i + 1) ((acc * 10) + Char.code c - Char.code '0')
      | _ -> None
  in
  if n = 0 || n > 18 || (n > 1 && s.[0] = '0') then None else go 0 0

let decode s =
  let n = String.length s in
  let rec fields i acc =
    if i >= n then Ok (List.rev acc)
    else
      match String.index_from_opt s i ':' with
      | None -> Error "missing ':' after field length"
      | Some j ->
        let len_text = String.sub s i (j - i) in
        (match parse_length len_text with
         | None -> Error (Printf.sprintf "bad field length %S" len_text)
         | Some len ->
           if j + 1 + len > n then Error "truncated field"
           else fields (j + 1 + len) (String.sub s (j + 1) len :: acc))
  in
  fields 0 []

let encode_int = string_of_int

let decode_int s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "bad integer %S" s)
