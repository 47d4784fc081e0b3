package club_test

// The test binary opens backends by name; link the driver bundle, as the
// commands do.
import _ "ocb/internal/backend/all"
