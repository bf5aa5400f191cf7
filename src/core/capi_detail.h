// capi_detail.h - Internal helpers shared by the TUs that implement the
// C API (core/pastri_capi.cpp, io/store_capi.cpp).  Not installed, not
// part of the public surface: C callers see only pastri_capi.h.
//
// Every C entry point funnels failures through fail() so the
// thread-local message behind pastri_last_error_message() and the
// status-code contract ("no exception ever crosses the boundary") are
// implemented in exactly one place.
#pragma once

#include "core/pastri.h"
#include "core/pastri_capi.h"

namespace pastri::capi {

/// Record `what` as the calling thread's last error message and return
/// `code`.  noexcept: an allocation failure while storing the message
/// loses the text but never the status.
pastri_status fail(pastri_status code, const char* what) noexcept;

/// Translate the C parameter struct.
pastri::Params to_cpp_params(const pastri_params& p);

/// The calling thread's last error message (backs
/// pastri_last_error_message).
const char* last_error_cstr();

}  // namespace pastri::capi
